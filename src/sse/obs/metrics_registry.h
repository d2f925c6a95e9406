#ifndef SSE_OBS_METRICS_REGISTRY_H_
#define SSE_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sse/obs/histogram.h"

namespace sse::obs {

/// Process-wide metric namespace. Two kinds of series:
///
///  * Counters — monotonically increasing atomic u64s owned by the
///    registry. GetCounter() is idempotent per name, so any layer can
///    bump "sse_net_frames_sent_total" without plumbing a handle through
///    constructors. Incrementing is one relaxed fetch_add.
///  * Providers — gauge / histogram-snapshot callbacks registered by
///    components that keep per-instance state (an engine's latency
///    histograms and degraded flag, the WAL's timings). Registration is
///    RAII so a destroyed engine stops being scraped; several instances
///    may register the same name (e.g. two servers in one test process)
///    and RenderPrometheus() merges them into one series.
///
/// RenderPrometheus() emits the Prometheus text exposition format; this is
/// the payload served over the kMsgStats admin RPC.
class MetricsRegistry {
 public:
  class Counter {
   public:
    void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

   private:
    std::atomic<uint64_t> value_{0};
  };

  /// RAII handle for a provider; unregisters on destruction. Movable so
  /// components can keep it as a member.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept { *this = std::move(other); }
    Registration& operator=(Registration&& other) noexcept;
    ~Registration() { Release(); }

    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;

   private:
    friend class MetricsRegistry;
    Registration(MetricsRegistry* registry, uint64_t id)
        : registry_(registry), id_(id) {}
    void Release();

    MetricsRegistry* registry_ = nullptr;
    uint64_t id_ = 0;
  };

  static MetricsRegistry& Global();

  /// The process-wide counter named `name` (created on first use; `help`
  /// is kept from the first caller that supplies one). Pointers stay valid
  /// for the life of the process.
  Counter* GetCounter(const std::string& name, const std::string& help = "");

  /// Registers a gauge read via `fn` at scrape time. Same-name gauges sum.
  [[nodiscard]] Registration RegisterGauge(const std::string& name,
                                           std::function<double()> fn,
                                           const std::string& help = "");

  /// Registers a histogram scraped via `fn`. Same-name histograms merge
  /// via LatencyHistogram::Snapshot::Merge.
  [[nodiscard]] Registration RegisterHistogram(
      const std::string& name, std::function<LatencyHistogram::Snapshot()> fn,
      const std::string& help = "");

  /// Prometheus text format: counters, then gauges, then histograms
  /// (bucket `le` labels and sums in seconds, per convention).
  std::string RenderPrometheus() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// A fresh registry, for tests that want isolation from Global().
  MetricsRegistry() = default;

 private:
  void Unregister(uint64_t id);

  struct GaugeEntry {
    std::string name;
    std::string help;
    std::function<double()> fn;
  };
  struct HistogramEntry {
    std::string name;
    std::string help;
    std::function<LatencyHistogram::Snapshot()> fn;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Counter>>>
      counters_;
  std::map<uint64_t, GaugeEntry> gauges_;
  std::map<uint64_t, HistogramEntry> histograms_;
  uint64_t next_id_ = 1;
};

/// --- Per-op crypto timing -------------------------------------------------
///
/// Histograms for PRF / PRG / ElGamal latency, recorded inside the crypto
/// primitives but only when explicitly enabled: the gate is one relaxed
/// atomic load, so the default-off path stays within the observability
/// overhead budget even though these primitives run millions of times per
/// search.
struct CryptoTimers {
  LatencyHistogram prf;
  LatencyHistogram prg;
  LatencyHistogram elgamal_encrypt;
  LatencyHistogram elgamal_decrypt;

  static CryptoTimers& Global();
};

bool CryptoTimingEnabled();
void SetCryptoTimingEnabled(bool enabled);

/// RAII timer for one primitive call: reads the clock only when the gate
/// is on, records into `hist` on destruction.
class ScopedCryptoTimer {
 public:
  explicit ScopedCryptoTimer(LatencyHistogram& hist)
      : hist_(CryptoTimingEnabled() ? &hist : nullptr) {
    if (hist_ != nullptr) {
      start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
    }
  }
  ~ScopedCryptoTimer() {
    if (hist_ != nullptr) {
      const int64_t now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count();
      hist_->Record(static_cast<uint64_t>(now_ns - start_ns_));
    }
  }
  ScopedCryptoTimer(const ScopedCryptoTimer&) = delete;
  ScopedCryptoTimer& operator=(const ScopedCryptoTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  int64_t start_ns_ = 0;
};

}  // namespace sse::obs

#endif  // SSE_OBS_METRICS_REGISTRY_H_
