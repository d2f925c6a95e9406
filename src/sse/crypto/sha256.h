#ifndef SSE_CRYPTO_SHA256_H_
#define SSE_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::crypto {

inline constexpr size_t kSha256DigestSize = 32;

/// A SHA-256 digest held by value: the hash chain's elements and tags, so
/// a walk along the chain allocates nothing per position.
using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

/// One-shot SHA-256.
Result<Bytes> Sha256(BytesView data);

/// SHA-256 over `a || b` without materializing the concatenation.
Result<Bytes> Sha256Concat(BytesView a, BytesView b);

}  // namespace sse::crypto

#endif  // SSE_CRYPTO_SHA256_H_
