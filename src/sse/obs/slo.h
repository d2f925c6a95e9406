#ifndef SSE_OBS_SLO_H_
#define SSE_OBS_SLO_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sse/obs/metrics_registry.h"

namespace sse::obs {

/// Op classes the SLO layer tracks. The values mirror net::OpClass
/// (search / mutation / control) but are redeclared here so obs stays a
/// leaf: the serving layer maps its classification into this enum at the
/// record site instead of obs depending on net.
enum class SloClass : uint8_t { kSearch = 0, kMutation = 1, kControl = 2 };
inline constexpr size_t kSloClasses = 3;

const char* SloClassName(SloClass c);

/// Per-class service objectives: the target fraction of good requests per
/// window (search, mutation, control). A request is *good* when it
/// succeeded AND finished under the class's latency threshold. Burn rate
/// is the standard multi-window SRE signal: (1 - attainment) /
/// (1 - objective) — 1.0 means the error budget burns exactly as fast as
/// it accrues, >>1 means an alert-worthy incident in progress.
inline constexpr std::array<double, kSloClasses> kSloObjective = {0.999, 0.995,
                                                                  0.999};

struct SloOptions {
  /// Latency threshold per class in microseconds; a slower success still
  /// spends error budget. 0 disables the latency criterion for the class.
  std::array<uint64_t, kSloClasses> latency_threshold_us = {10'000, 50'000,
                                                            250'000};
  /// Ring geometry: `buckets` buckets of `bucket_seconds` each bound the
  /// longest window a snapshot can ask for.
  uint32_t bucket_seconds = 1;
  size_t buckets = 600;
  /// The two standard alerting windows (seconds). Fast catches cliffs,
  /// slow filters blips; both must fit inside the ring.
  uint32_t fast_window_s = 60;
  uint32_t slow_window_s = 300;
};

/// Sliding-window SLO accounting from time-bucketed rings.
///
/// Each (class, second) pair lands in one ring bucket holding three
/// relaxed atomic counters (total / errors / slow successes) plus the
/// epoch second it belongs to. Recording is a handful of relaxed atomic
/// ops — cheap enough for every served frame — and rotation is implicit:
/// a bucket whose stored epoch is stale is re-claimed by CAS when its slot
/// comes around again, so idle gaps cost nothing and leave no ghost
/// samples (a window sum simply skips buckets whose epoch falls outside
/// it). The one documented race: a sample recorded in the same nanosecond
/// a bucket is being re-claimed can be lost; monitoring tolerates that,
/// exactness does not belong on this path.
///
/// Snapshots sum the live buckets inside a window and are merge-able, so
/// per-thread or per-process views compose (Window::Merge).
class SloTracker {
 public:
  SloTracker();
  explicit SloTracker(SloOptions options);

  /// The process-wide tracker the serving layer records into and the
  /// stats scrape renders. Its gauges are registered on first use.
  static SloTracker& Global();

  /// Overrides the options Global() will be constructed with. Effective
  /// only before the first Global() call — returns false (and changes
  /// nothing) once the tracker exists, because rewiring objectives under
  /// live recorders would corrupt the windows. Intended for process entry
  /// points translating deployment knobs (e.g. SSE_SLO_SEARCH_MS).
  static bool ConfigureGlobal(const SloOptions& options);

  /// Records one finished request. `ok` is the application verdict (an
  /// error reply or a shed counts against availability); latency is the
  /// server-side cost including queue wait.
  void Record(SloClass c, uint64_t latency_ns, bool ok);
  /// Test seam: record at an explicit epoch second.
  void RecordAt(SloClass c, uint64_t latency_ns, bool ok, int64_t now_s);

  /// One window's aggregate. Empty windows report perfect attainment —
  /// no traffic spends no budget.
  struct Window {
    uint64_t total = 0;
    uint64_t errors = 0;  // !ok
    uint64_t slow = 0;    // ok but over the class latency threshold
    double availability() const {
      return total == 0
                 ? 1.0
                 : 1.0 - static_cast<double>(errors) / static_cast<double>(total);
    }
    /// Good-request fraction: ok AND under the threshold.
    double attainment() const {
      return total == 0 ? 1.0
                        : static_cast<double>(total - errors - slow) /
                              static_cast<double>(total);
    }
    void Merge(const Window& other) {
      total += other.total;
      errors += other.errors;
      slow += other.slow;
    }
  };

  struct ClassReport {
    Window fast;
    Window slow;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    /// Verdict per window: attainment meets the class objective.
    bool fast_ok = true;
    bool slow_ok = true;
  };
  struct Report {
    std::array<ClassReport, kSloClasses> classes;
    const ClassReport& of(SloClass c) const {
      return classes[static_cast<size_t>(c)];
    }
  };

  /// Aggregate of the trailing `window_s` seconds ending at `now_s`.
  Window WindowAt(SloClass c, uint32_t window_s, int64_t now_s) const;

  /// Fast+slow windows, burn rates and verdicts for every class.
  Report Snapshot() const;
  Report SnapshotAt(int64_t now_s) const;

  /// Burn rate of `w` against the class objective.
  double BurnRate(SloClass c, const Window& w) const;

  /// Registers the sse_slo_* gauge family into `registry`; keep the
  /// registrations alive as long as scrapes should see this tracker.
  [[nodiscard]] std::vector<MetricsRegistry::Registration> RegisterGauges(
      MetricsRegistry& registry);

  /// One-line human digest ("search avail=100.00% att=99.90% burn=1.0/0.2
  /// ...") used by StatsLogger; classes with no traffic in the slow window
  /// are skipped unless `include_idle`.
  std::string Summary(bool include_idle = false) const;

  const SloOptions& options() const { return options_; }

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

 private:
  struct Bucket {
    std::atomic<int64_t> epoch{-1};  // bucket-epoch (now_s / bucket_seconds)
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> slow{0};
  };

  SloOptions options_;
  /// kSloClasses rings of options_.buckets each, flattened.
  std::vector<Bucket> buckets_;
};

/// Process-wide gate for the serving layer's SLO recording (mirrors the
/// crypto-timer gate): one relaxed load per frame when off, so benches can
/// price the layer. Default on.
bool SloRecordingEnabled();
void SetSloRecordingEnabled(bool enabled);

}  // namespace sse::obs

#endif  // SSE_OBS_SLO_H_
