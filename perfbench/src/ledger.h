// Per-op layer accounting over the traced run's spans.
//
// For each op, every layer's spans are merged into a union of intervals
// (parallel shard sub-requests and pipelined attempts then count once), and
// a layer's self time is its union minus the part of it its child layers
// cover:
//
//   core.client  = op span  - net.rpc
//   net.rpc      = net.rpc  - net.attempt      (RetryingChannel's own work)
//   net.transport= net.attempt - core.durable  (socket, reactor, dispatch)
//   core.durable = core.durable - engine - storage
//   storage      = WAL Append/Sync inside the op's durable span, outside
//                  its engine span (a Store waiting on another owner's
//                  group-commit fsync counts it too)
//   engine       = engine - core.scheme        (route, pool hop, lock wait,
//                                               document put, merge)
//   core.scheme  = the shards' scheme servers
//
// Children only count where they lie inside their parent, so the self
// times add up to the op's root span exactly when every span nests the way
// the stack calls. `unattributed` is the op latency as the benchmark timed
// it (the timer the untraced latencies use) minus the sum of the self
// times: the taps' own bookkeeping around the call, and any time a child
// spent outside its parent.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "taps.h"

namespace perfbench {

enum OpClass : uint8_t { kSearch = 0, kUpdate = 1 };

/// Self-time slots, in report order.
enum Stage : uint8_t {
  kStageClient,
  kStageRpc,
  kStageTransport,
  kStageDurable,
  kStageStorage,
  kStageEngine,
  kStageScheme,
  kStageCount,
};

struct ClassLedger {
  uint64_t ops = 0;
  double mean_us = 0;  // mean op latency as timed by the benchmark
  std::array<double, kStageCount> self_us{};
  double unattributed_us = 0;
  double merge_us = 0;        // inside engine self
  double sync_us = 0;         // inside storage
  double shards_per_op = 0;   // shard sub-requests per op
};

/// `op_class[id]` is the class of op `id` (ids start at 1; index 0 unused);
/// `mean_us` is each class's mean op latency from the benchmark's timer.
std::array<ClassLedger, 2> BuildLedger(const std::vector<Span>& spans,
                                       const std::vector<uint8_t>& op_class,
                                       const std::array<double, 2>& mean_us);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
