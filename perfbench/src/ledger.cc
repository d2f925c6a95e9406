#include "ledger.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

using Intervals = std::vector<std::pair<uint64_t, uint64_t>>;

Intervals Union(Intervals v) {
  std::sort(v.begin(), v.end());
  Intervals out;
  for (const auto& iv : v) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

uint64_t Length(const Intervals& v) {
  uint64_t n = 0;
  for (const auto& iv : v) n += iv.second - iv.first;
  return n;
}

/// Both arguments sorted and disjoint (outputs of Union).
Intervals Intersect(const Intervals& a, const Intervals& b) {
  Intervals out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const uint64_t lo = std::max(a[i].first, b[j].first);
    const uint64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

Intervals Subtract(const Intervals& a, const Intervals& b) {
  Intervals out;
  size_t j = 0;
  for (auto [lo, hi] : a) {
    while (j < b.size() && b[j].second <= lo) ++j;
    size_t k = j;
    while (lo < hi && k < b.size() && b[k].first < hi) {
      if (b[k].first > lo) out.emplace_back(lo, b[k].first);
      lo = std::max(lo, b[k].second);
      ++k;
    }
    if (lo < hi) out.emplace_back(lo, hi);
  }
  return out;
}

/// Length of `child` inside `parent`.
uint64_t Inside(const Intervals& child, const Intervals& parent) {
  return Length(Intersect(child, parent));
}

}  // namespace

std::array<ClassLedger, 2> BuildLedger(const std::vector<Span>& spans,
                                       const std::vector<uint8_t>& op_class,
                                       const std::array<double, 2>& mean_us) {
  const size_t num_ops = op_class.size();
  constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);
  std::vector<std::array<Intervals, kLayers>> by_op(num_ops);
  std::vector<uint32_t> shard_spans(num_ops, 0);
  Intervals syncs;  // every WAL fsync, for group-commit waiters
  for (const Span& s : spans) {
    if (s.layer == Layer::kSync) syncs.emplace_back(s.start_ns, s.end_ns);
    if (s.op == 0 || s.op >= num_ops) continue;
    by_op[s.op][static_cast<size_t>(s.layer)].emplace_back(s.start_ns,
                                                           s.end_ns);
    if (s.layer == Layer::kShard) ++shard_spans[s.op];
  }
  std::sort(syncs.begin(), syncs.end());
  uint64_t longest_sync = 0;
  for (const auto& iv : syncs) {
    longest_sync = std::max(longest_sync, iv.second - iv.first);
  }

  std::array<ClassLedger, 2> out{};
  for (size_t op = 1; op < num_ops; ++op) {
    auto& layers = by_op[op];
    auto U = [&](Layer l) { return Union(layers[static_cast<size_t>(l)]); };
    const Intervals client = U(Layer::kClient);
    if (client.empty()) continue;  // op never ran (or ran untraced)
    const Intervals rpc = U(Layer::kRpc);
    const Intervals attempt = U(Layer::kAttempt);
    const Intervals handler = U(Layer::kHandler);
    const Intervals engine = U(Layer::kEngine);
    const Intervals shard = U(Layer::kShard);
    const Intervals merge = U(Layer::kMerge);

    Intervals storage_raw = layers[static_cast<size_t>(Layer::kAppend)];
    Intervals sync_raw = layers[static_cast<size_t>(Layer::kSync)];
    if (op_class[op] == kUpdate) {
      for (const auto& [lo, hi] : handler) {
        auto it = std::lower_bound(
            syncs.begin(), syncs.end(),
            std::make_pair(lo > longest_sync ? lo - longest_sync : 0,
                           uint64_t{0}));
        for (; it != syncs.end() && it->first < hi; ++it) {
          if (it->second > lo) sync_raw.push_back(*it);
        }
      }
    }
    const Intervals sync = Subtract(Intersect(Union(sync_raw), handler), engine);
    storage_raw.insert(storage_raw.end(), sync_raw.begin(), sync_raw.end());
    const Intervals storage =
        Subtract(Intersect(Union(storage_raw), handler), engine);

    std::array<double, kStageCount> self{};
    const double total = static_cast<double>(Length(client));
    self[kStageClient] = total - Inside(rpc, client);
    self[kStageRpc] = static_cast<double>(Length(rpc)) - Inside(attempt, rpc);
    self[kStageTransport] =
        static_cast<double>(Length(attempt)) - Inside(handler, attempt);
    Intervals below_durable = engine;
    below_durable.insert(below_durable.end(), storage.begin(), storage.end());
    self[kStageDurable] = static_cast<double>(Length(handler)) -
                          Inside(Union(below_durable), handler);
    self[kStageStorage] = static_cast<double>(Length(storage));
    self[kStageEngine] =
        static_cast<double>(Length(engine)) - Inside(shard, engine);
    self[kStageScheme] = static_cast<double>(Length(shard));

    ClassLedger& c = out[op_class[op]];
    c.ops += 1;
    for (size_t i = 0; i < kStageCount; ++i) c.self_us[i] += self[i];
    c.merge_us += static_cast<double>(Inside(merge, engine));
    c.sync_us += static_cast<double>(Length(sync));
    c.shards_per_op += shard_spans[op];
  }
  for (size_t k = 0; k < out.size(); ++k) {
    ClassLedger& c = out[k];
    if (c.ops == 0) continue;
    const double per_op_us = 1e-3 / static_cast<double>(c.ops);  // ns -> us
    c.mean_us = mean_us[k];
    c.unattributed_us = c.mean_us;
    for (double& v : c.self_us) {
      v *= per_op_us;
      c.unattributed_us -= v;
    }
    c.merge_us *= per_op_us;
    c.sync_us *= per_op_us;
    c.shards_per_op /= static_cast<double>(c.ops);
  }
  return out;
}

}  // namespace perfbench
