#include "sse/crypto/stream_cipher.h"

#include <algorithm>

#include "sse/crypto/hkdf.h"
#include "sse/crypto/kernel.h"
#include "sse/crypto/prf.h"

namespace sse::crypto {

Result<StreamCipher> StreamCipher::Create(BytesView key) {
  if (key.size() < 16) {
    return Status::InvalidArgument("StreamCipher key must be >= 16 bytes");
  }
  Bytes material;
  SSE_ASSIGN_OR_RETURN(material, HkdfSha256(key, /*salt=*/{},
                                            "sse.stream_cipher.v1", 64));
  Bytes enc_key(material.begin(), material.begin() + 32);
  Bytes mac_key(material.begin() + 32, material.end());
  return StreamCipher(std::move(enc_key), std::move(mac_key));
}

Result<Bytes> StreamCipher::Encrypt(BytesView plaintext,
                                    RandomSource& rng) const {
  Bytes iv(kStreamIvSize);
  SSE_RETURN_IF_ERROR(rng.Fill(iv));
  Bytes out(kStreamIvSize + plaintext.size());
  std::copy(iv.begin(), iv.end(), out.begin());
  SSE_RETURN_IF_ERROR(
      kernel::Aes256Ctr(enc_key_, iv, plaintext, out.data() + kStreamIvSize));
  Bytes tag;
  SSE_ASSIGN_OR_RETURN(tag, HmacSha256(mac_key_, out));
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

Result<Bytes> StreamCipher::Decrypt(BytesView ciphertext) const {
  if (ciphertext.size() < kStreamOverhead) {
    return Status::CryptoError("stream ciphertext too short");
  }
  const size_t body_len = ciphertext.size() - kStreamTagSize;
  BytesView body = ciphertext.subspan(0, body_len);
  BytesView tag = ciphertext.subspan(body_len);
  Bytes expected;
  SSE_ASSIGN_OR_RETURN(expected, HmacSha256(mac_key_, body));
  if (!ConstantTimeEqual(expected, tag)) {
    return Status::CryptoError("stream cipher MAC mismatch");
  }
  BytesView ct = body.subspan(kStreamIvSize);
  Bytes plaintext(ct.size());
  SSE_RETURN_IF_ERROR(kernel::Aes256Ctr(
      enc_key_, body.subspan(0, kStreamIvSize), ct, plaintext.data()));
  return plaintext;
}

}  // namespace sse::crypto
