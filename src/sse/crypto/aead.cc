#include "sse/crypto/aead.h"

#include <algorithm>

#include "sse/crypto/kernel.h"

namespace sse::crypto {

static_assert(kAeadNonceSize == kernel::kAesGcmNonceSize &&
              kAeadTagSize == kernel::kAesGcmTagSize);

Result<Aead> Aead::Create(BytesView key) {
  if (key.size() != kAeadKeySize) {
    return Status::InvalidArgument("AEAD key must be 32 bytes, got " +
                                   std::to_string(key.size()));
  }
  return Aead(ToBytes(key));
}

Result<Bytes> Aead::Seal(BytesView plaintext, BytesView associated_data,
                         RandomSource& rng) const {
  Bytes nonce(kAeadNonceSize);
  SSE_RETURN_IF_ERROR(rng.Fill(nonce));
  Bytes out(kAeadNonceSize + plaintext.size() + kAeadTagSize);
  std::copy(nonce.begin(), nonce.end(), out.begin());
  uint8_t* ct = out.data() + kAeadNonceSize;
  SSE_RETURN_IF_ERROR(kernel::Aes256GcmSeal(key_, nonce, associated_data,
                                            plaintext, ct,
                                            ct + plaintext.size()));
  return out;
}

Result<Bytes> Aead::Open(BytesView ciphertext, BytesView associated_data) const {
  if (ciphertext.size() < kAeadOverhead) {
    return Status::CryptoError("AEAD ciphertext too short");
  }
  const size_t ct_len = ciphertext.size() - kAeadOverhead;
  Bytes plaintext(ct_len);
  SSE_RETURN_IF_ERROR(kernel::Aes256GcmOpen(
      key_, ciphertext.subspan(0, kAeadNonceSize), associated_data,
      ciphertext.subspan(kAeadNonceSize, ct_len),
      ciphertext.subspan(kAeadNonceSize + ct_len), plaintext.data()));
  return plaintext;
}

}  // namespace sse::crypto
