#include "sse/engine/shard_router.h"

namespace sse::engine {

size_t ShardForToken(BytesView token, size_t num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t x = 0;
  const size_t n = token.size() < 8 ? token.size() : 8;
  for (size_t i = 0; i < n; ++i) {
    x |= static_cast<uint64_t>(token[i]) << (8 * i);
  }
  // splitmix64 finalizer.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

Status AttachDocuments(const DocumentFetcher& fetch_docs,
                       const std::vector<uint64_t>& ids,
                       std::vector<core::WireDocument>& documents) {
  std::vector<std::pair<uint64_t, Bytes>> fetched;
  SSE_ASSIGN_OR_RETURN(fetched, fetch_docs(ids));
  documents.clear();
  documents.reserve(fetched.size());
  for (auto& [id, blob] : fetched) {
    documents.push_back(core::WireDocument{id, std::move(blob)});
  }
  return Status::OK();
}

}  // namespace sse::engine
