#include "sse/crypto/sha256.h"

#include "sse/crypto/kernel.h"

namespace sse::crypto {

Result<Bytes> Sha256(BytesView data) { return Sha256Concat(data, {}); }

Result<Bytes> Sha256Concat(BytesView a, BytesView b) {
  Sha256Digest digest;
  SSE_RETURN_IF_ERROR(kernel::Sha256(a, b, digest));
  return ToBytes(digest);
}

}  // namespace sse::crypto
