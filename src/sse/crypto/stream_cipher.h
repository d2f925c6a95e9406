#ifndef SSE_CRYPTO_STREAM_CIPHER_H_
#define SSE_CRYPTO_STREAM_CIPHER_H_

#include <cstddef>

#include "sse/util/bytes.h"
#include "sse/util/random.h"
#include "sse/util/result.h"

namespace sse::crypto {

inline constexpr size_t kStreamIvSize = 16;
inline constexpr size_t kStreamTagSize = 32;
inline constexpr size_t kStreamOverhead = kStreamIvSize + kStreamTagSize;

/// The paper's "secure permutation function E_k" used by Scheme 2 to mask
/// each posting-list segment `E_{k_j}(I_j(w))`.
///
/// Substitution note (see DESIGN.md): a pseudo-random permutation over
/// variable-length strings is impractical; we instantiate E_k as
/// AES-256-CTR + HMAC-SHA-256 encrypt-then-MAC, with the two subkeys
/// derived from `key` via HKDF. This provides IND-CPA confidentiality plus
/// ciphertext integrity, which is what the construction relies on: segments
/// decrypt only under the chain key the client released, and a tampered
/// segment is detected rather than silently yielding garbage identifiers.
///
/// Layout: iv(16) || ct(|pt|) || tag(32), tag = HMAC-SHA-256 of iv || ct
/// under mac_key.
class StreamCipher {
 public:
  /// `key` may be any length >= 16; subkeys are derived internally.
  static Result<StreamCipher> Create(BytesView key);

  Result<Bytes> Encrypt(BytesView plaintext, RandomSource& rng) const;
  Result<Bytes> Decrypt(BytesView ciphertext) const;

 private:
  StreamCipher(Bytes enc_key, Bytes mac_key)
      : enc_key_(std::move(enc_key)), mac_key_(std::move(mac_key)) {}
  Bytes enc_key_;
  Bytes mac_key_;
};

}  // namespace sse::crypto

#endif  // SSE_CRYPTO_STREAM_CIPHER_H_
