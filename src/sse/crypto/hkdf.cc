#include "sse/crypto/hkdf.h"

#include "sse/crypto/prf.h"

namespace sse::crypto {

namespace {
constexpr size_t kHashLen = 32;
}

Result<Bytes> HkdfSha256(BytesView ikm, BytesView salt, std::string_view info,
                         size_t out_len) {
  // Extract: PRK = HMAC-SHA-256 of IKM under salt. RFC 5869 uses a
  // zero-filled salt when none is provided.
  Bytes effective_salt =
      salt.empty() ? Bytes(kHashLen, 0) : ToBytes(salt);
  Bytes prk;
  SSE_ASSIGN_OR_RETURN(prk, HmacSha256(effective_salt, ikm));
  return HkdfExpand(prk, info, out_len);
}

Result<Bytes> HkdfExpand(BytesView prk, std::string_view info, size_t out_len) {
  if (out_len == 0) return Status::InvalidArgument("HKDF output length is zero");
  if (out_len > 255 * kHashLen) {
    return Status::InvalidArgument("HKDF output length exceeds 255*32 bytes");
  }
  Bytes out;
  out.reserve(out_len);
  Bytes t;  // T(0) = empty
  uint8_t counter = 1;
  while (out.size() < out_len) {
    Bytes block = t;
    block.insert(block.end(), reinterpret_cast<const uint8_t*>(info.data()),
                 reinterpret_cast<const uint8_t*>(info.data()) + info.size());
    block.push_back(counter++);
    SSE_ASSIGN_OR_RETURN(t, HmacSha256(prk, block));
    const size_t take = std::min(kHashLen, out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
  }
  return out;
}

}  // namespace sse::crypto
