#ifndef SSE_OBS_HISTOGRAM_H_
#define SSE_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace sse::obs {

/// Lock-free latency histogram with power-of-two nanosecond buckets.
/// Recording is two relaxed atomic adds — cheap enough for every request on
/// the hot path; snapshots are approximate (not a consistent cut), which is
/// fine for reporting.
///
/// Lives in obs so the engine, net and storage layers record into the same
/// shape and multi-source snapshots compose via Merge().
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // covers ~1 ns .. ~9 min

  void Record(uint64_t nanos);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t total_nanos = 0;
    std::array<uint64_t, kBuckets> buckets{};

    double mean_micros() const;
    /// Quantile `q` in [0,1] (µs), linearly interpolated inside the bucket
    /// containing the rank (median-unbiased: a lone sample reports its
    /// bucket midpoint, not the upper edge).
    double quantile_micros(double q) const;
    /// Folds `other` into this snapshot so per-shard / per-run snapshots
    /// compose into one distribution.
    void Merge(const Snapshot& other);

    /// Bucket `i` covers nanos in [lower_edge(i), upper_edge(i)).
    static uint64_t lower_edge_nanos(size_t i) {
      return i == 0 ? 0 : (1ULL << i);
    }
    static uint64_t upper_edge_nanos(size_t i) { return 2ULL << i; }
  };
  Snapshot Snap() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_nanos_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

}  // namespace sse::obs

#endif  // SSE_OBS_HISTOGRAM_H_
