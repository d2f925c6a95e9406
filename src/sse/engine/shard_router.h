#ifndef SSE_ENGINE_SHARD_ROUTER_H_
#define SSE_ENGINE_SHARD_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sse/engine/scheme_shard.h"
#include "sse/net/message.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::engine {

/// Maps a search token `f_{k_w}(w)` to the shard that owns its keyword.
///
/// Tokens are PRF outputs, so their leading bytes are uniform by
/// construction — partitioning on a mix of the first 8 bytes gives balanced
/// shards without any coordination or rebalancing. The mix (splitmix64
/// finalizer) only matters for non-PRF callers (tests, ablation tokens);
/// for real tokens any byte would do.
size_t ShardForToken(BytesView token, size_t num_shards);

// The routing and merging steps every scheme adapter shares.

/// Splits the list `items` of a request across shards by each item's
/// routing key `key(item)` and appends one sub-request per shard that owns
/// at least one item (with `every_shard`, one per shard). Each
/// sub-request is a `Request` whose list `field` holds that shard's items
/// in their original order; `positions` records their indices in `items`.
template <typename Request, typename Item, typename KeyFn>
void ScatterByShard(std::vector<Item> Request::*field, std::vector<Item> items,
                    KeyFn key, size_t num_shards, bool every_shard,
                    RequestPlan& plan) {
  std::vector<std::vector<size_t>> by_shard(num_shards);
  for (size_t i = 0; i < items.size(); ++i) {
    by_shard[ShardForToken(key(items[i]), num_shards)].push_back(i);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (by_shard[s].empty() && !every_shard) continue;
    Request sub;
    (sub.*field).reserve(by_shard[s].size());
    for (size_t idx : by_shard[s]) (sub.*field).push_back(std::move(items[idx]));
    plan.subs.push_back(
        SubRequest{s, sub.ToMessage(), std::move(by_shard[s])});
  }
}

/// Merges shard acks by summing the count field `count`.
template <typename Ack>
Result<net::Message> SumAcks(const std::vector<net::Message>& replies,
                             uint64_t Ack::*count) {
  Ack merged;
  for (const net::Message& reply : replies) {
    Ack ack;
    SSE_ASSIGN_OR_RETURN(ack, Ack::FromMessage(reply));
    merged.*count += ack.*count;
  }
  return merged.ToMessage();
}

}  // namespace sse::engine

#endif  // SSE_ENGINE_SHARD_ROUTER_H_
