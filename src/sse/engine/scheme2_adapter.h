#ifndef SSE_ENGINE_SCHEME2_ADAPTER_H_
#define SSE_ENGINE_SCHEME2_ADAPTER_H_

#include "sse/core/options.h"
#include "sse/core/scheme2_server.h"
#include "sse/engine/scheme_shard.h"

namespace sse::engine {

/// Sharding policy for Scheme 2 (paper §5.5–5.6).
///
/// Updates scatter their per-keyword segments by token; the one-round
/// search (Fig. 4) routes to a single shard, which walks the hash chain for
/// just its own keyword. Chain re-initialization broadcasts: FetchAll
/// concatenates every shard's dump, Reinit clears all shards and re-seeds
/// each with its slice of the new epoch's segments.
///
/// Each shard's server keeps its own Optimization-1 cache, under the
/// cache's own lock, so a search only reads its shard and shares the
/// shard lock.
class Scheme2Adapter : public SchemeAdapter {
 public:
  explicit Scheme2Adapter(const core::SchemeOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "scheme2"; }
  std::unique_ptr<SchemeShard> CreateShard() const override;
  Result<RequestPlan> Route(const net::Message& request,
                            size_t num_shards) const override;
  Result<net::Message> Merge(const net::Message& request,
                             const RequestPlan& plan,
                             std::vector<net::Message> replies,
                             const DocumentFetcher& fetch_docs) const override;

 private:
  core::SchemeOptions options_;
};

}  // namespace sse::engine

#endif  // SSE_ENGINE_SCHEME2_ADAPTER_H_
