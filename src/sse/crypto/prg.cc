#include "sse/crypto/prg.h"

#include "sse/crypto/kernel.h"
#include "sse/obs/metrics_registry.h"

namespace sse::crypto {

Result<Bytes> PrgExpand(BytesView seed, size_t out_len) {
  obs::ScopedCryptoTimer timer(obs::CryptoTimers::Global().prg);
  if (seed.empty()) return Status::InvalidArgument("PRG seed is empty");
  if (out_len == 0) return Bytes{};

  Sha256Digest key;
  SSE_RETURN_IF_ERROR(kernel::Sha256(seed, {}, key));
  // The keystream is the encryption of zeros, written in place.
  static const uint8_t kZeroIv[kernel::kAesCtrIvSize] = {};
  Bytes out(out_len, 0);
  SSE_RETURN_IF_ERROR(kernel::Aes256Ctr(key, kZeroIv, out, out.data()));
  return out;
}

}  // namespace sse::crypto
