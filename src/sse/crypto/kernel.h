#ifndef SSE_CRYPTO_KERNEL_H_
#define SSE_CRYPTO_KERNEL_H_

#include <cstdint>

#include "sse/crypto/sha256.h"
#include "sse/util/bytes.h"
#include "sse/util/status.h"

/// The fetch-once crypto kernel every primitive in crypto/ runs on.
///
/// SHA-256, HMAC-SHA-256 (OpenSSL's EVP_MAC), AES-256-CTR and AES-256-GCM
/// are fetched from the default provider once per process. Each thread
/// keeps one context of each kind and re-initialises it on every call, so
/// a call neither fetches an algorithm nor allocates a context. No kernel
/// call nests another call on the same context. Only crypto/ includes
/// this header; the rest of the library uses the primitives built on it.
namespace sse::crypto::kernel {

/// SHA-256 of `a || b`.
Status Sha256(BytesView a, BytesView b, Sha256Digest& out);

/// The hash chain's step f(x) = SHA-256("sse.chain.step" || x) and tag
/// f'(x) = SHA-256("sse.chain.tag" || x). Each thread absorbs the labels
/// once and copies that state per call. `x` may alias `out`.
Status ChainStep(BytesView x, Sha256Digest& out);
Status ChainTag(BytesView x, Sha256Digest& out);

/// HMAC-SHA-256 of `data` under `key` (any length, empty included).
Status HmacSha256(BytesView key, BytesView data, Sha256Digest& out);

inline constexpr size_t kAes256KeySize = 32;
inline constexpr size_t kAesCtrIvSize = 16;
inline constexpr size_t kAesGcmNonceSize = 12;
inline constexpr size_t kAesGcmTagSize = 16;

/// AES-256-CTR: writes `in` XOR the keystream of (`key`, `iv`) to `out`,
/// which has room for `in.size()` bytes and may equal `in.data()`. The one
/// CTR routine behind StreamCipher and PrgExpand.
Status Aes256Ctr(BytesView key, BytesView iv, BytesView in, uint8_t* out);

/// AES-256-GCM with a 12-byte nonce and a 16-byte tag. Seal writes
/// `plaintext.size()` bytes to `ct_out` and the tag to `tag_out`; Open
/// writes `ciphertext.size()` bytes to `pt_out` and fails with
/// CRYPTO_ERROR unless `tag` authenticates (`aad`, `ciphertext`).
Status Aes256GcmSeal(BytesView key, BytesView nonce, BytesView aad,
                     BytesView plaintext, uint8_t* ct_out, uint8_t* tag_out);
Status Aes256GcmOpen(BytesView key, BytesView nonce, BytesView aad,
                     BytesView ciphertext, BytesView tag, uint8_t* pt_out);

}  // namespace sse::crypto::kernel

#endif  // SSE_CRYPTO_KERNEL_H_
