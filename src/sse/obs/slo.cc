#include "sse/obs/slo.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace sse::obs {

namespace {

int64_t NowSeconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<bool> g_slo_enabled{true};

// Pending options for the global tracker, settable until first use.
std::mutex g_global_mu;
SloOptions* g_global_options = nullptr;
bool g_global_created = false;

}  // namespace

bool SloRecordingEnabled() {
  return g_slo_enabled.load(std::memory_order_relaxed);
}

void SetSloRecordingEnabled(bool enabled) {
  g_slo_enabled.store(enabled, std::memory_order_relaxed);
}

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kSearch:
      return "search";
    case OpClass::kMutation:
      return "mutation";
    case OpClass::kControl:
      return "control";
  }
  return "unknown";
}

SloTracker::SloTracker() : SloTracker(SloOptions{}) {}

SloTracker::SloTracker(SloOptions options) : options_(options) {
  if (options_.bucket_seconds == 0) options_.bucket_seconds = 1;
  const size_t need =
      (std::max(options_.fast_window_s, options_.slow_window_s) +
       options_.bucket_seconds - 1) /
      options_.bucket_seconds;
  options_.buckets = std::max<size_t>(options_.buckets, need + 1);
  buckets_ = std::vector<Bucket>(kOpClasses * options_.buckets);
}

bool SloTracker::ConfigureGlobal(const SloOptions& options) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_created) return false;
  if (g_global_options == nullptr) g_global_options = new SloOptions;
  *g_global_options = options;
  return true;
}

SloTracker& SloTracker::Global() {
  static SloTracker* tracker = [] {
    std::lock_guard<std::mutex> lock(g_global_mu);
    g_global_created = true;
    auto* t = new SloTracker(g_global_options != nullptr ? *g_global_options
                                                         : SloOptions{});
    // The registrations live as long as the process; leak them alongside
    // the tracker so scrapes always see the sse_slo_* family.
    static std::vector<MetricsRegistry::Registration> regs =
        t->RegisterGauges(MetricsRegistry::Global());
    return t;
  }();
  return *tracker;
}

void SloTracker::Record(OpClass c, uint64_t latency_ns, bool ok) {
  RecordAt(c, latency_ns, ok, NowSeconds());
}

void SloTracker::RecordAt(OpClass c, uint64_t latency_ns, bool ok,
                          int64_t now_s) {
  const int64_t epoch = now_s / options_.bucket_seconds;
  const size_t slot = static_cast<size_t>(c) * options_.buckets +
                      static_cast<size_t>(epoch % static_cast<int64_t>(
                                                      options_.buckets));
  Bucket& b = buckets_[slot];
  int64_t seen = b.epoch.load(std::memory_order_acquire);
  if (seen != epoch) {
    if (seen > epoch) return;  // stale sample from a clock race: drop it
    // Re-claim the slot for this epoch. The CAS winner zeroes the
    // counters; a concurrent recorder that observes the new epoch before
    // the zeroing finishes may lose its sample — acceptable for
    // monitoring, and bounded to the rotation instant.
    if (b.epoch.compare_exchange_strong(seen, epoch,
                                        std::memory_order_acq_rel)) {
      b.total.store(0, std::memory_order_relaxed);
      b.errors.store(0, std::memory_order_relaxed);
      b.slow.store(0, std::memory_order_relaxed);
    } else if (b.epoch.load(std::memory_order_acquire) != epoch) {
      return;  // lost the race to a different epoch entirely
    }
  }
  b.total.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    b.errors.fetch_add(1, std::memory_order_relaxed);
  } else {
    const uint64_t threshold_us =
        options_.latency_threshold_us[static_cast<size_t>(c)];
    if (threshold_us != 0 && latency_ns > threshold_us * 1000ull) {
      b.slow.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

SloTracker::Window SloTracker::WindowAt(OpClass c, uint32_t window_s,
                                        int64_t now_s) const {
  Window w;
  const int64_t now_epoch = now_s / options_.bucket_seconds;
  const int64_t span = std::min<int64_t>(
      static_cast<int64_t>(options_.buckets),
      std::max<int64_t>(
          1, window_s / std::max<uint32_t>(1, options_.bucket_seconds)));
  const int64_t oldest = now_epoch - span + 1;
  for (int64_t e = oldest; e <= now_epoch; ++e) {
    if (e < 0) continue;
    const size_t slot =
        static_cast<size_t>(c) * options_.buckets +
        static_cast<size_t>(e % static_cast<int64_t>(options_.buckets));
    const Bucket& b = buckets_[slot];
    if (b.epoch.load(std::memory_order_acquire) != e) continue;  // stale/idle
    w.total += b.total.load(std::memory_order_relaxed);
    w.errors += b.errors.load(std::memory_order_relaxed);
    w.slow += b.slow.load(std::memory_order_relaxed);
  }
  // A racing rotation can transiently leave errors+slow > total; clamp so
  // derived rates stay in range.
  w.errors = std::min(w.errors, w.total);
  w.slow = std::min(w.slow, w.total - w.errors);
  return w;
}

double SloTracker::BurnRate(OpClass c, const Window& w) const {
  const double budget = 1.0 - kSloObjective[static_cast<size_t>(c)];
  return (1.0 - w.attainment()) / budget;
}

SloTracker::Report SloTracker::Snapshot() const {
  return SnapshotAt(NowSeconds());
}

SloTracker::Report SloTracker::SnapshotAt(int64_t now_s) const {
  Report report;
  for (size_t i = 0; i < kOpClasses; ++i) {
    const OpClass c = static_cast<OpClass>(i);
    ClassReport& r = report.classes[i];
    r.fast = WindowAt(c, options_.fast_window_s, now_s);
    r.slow = WindowAt(c, options_.slow_window_s, now_s);
    r.fast_burn = BurnRate(c, r.fast);
    r.slow_burn = BurnRate(c, r.slow);
    r.fast_ok = r.fast.attainment() >= kSloObjective[i];
    r.slow_ok = r.slow.attainment() >= kSloObjective[i];
  }
  return report;
}

std::vector<MetricsRegistry::Registration> SloTracker::RegisterGauges(
    MetricsRegistry& registry) {
  std::vector<MetricsRegistry::Registration> regs;
  for (size_t i = 0; i < kOpClasses; ++i) {
    const OpClass c = static_cast<OpClass>(i);
    const std::string base = std::string("sse_slo_") + OpClassName(c);
    regs.push_back(registry.RegisterGauge(
        base + "_availability",
        [this, c] {
          return Snapshot().of(c).fast.availability();
        },
        "Non-error fraction over the fast SLO window"));
    regs.push_back(registry.RegisterGauge(
        base + "_attainment",
        [this, c] { return Snapshot().of(c).fast.attainment(); },
        "Good-request (ok and under threshold) fraction, fast window"));
    regs.push_back(registry.RegisterGauge(
        base + "_attainment_slow",
        [this, c] { return Snapshot().of(c).slow.attainment(); },
        "Good-request fraction over the slow SLO window"));
    regs.push_back(registry.RegisterGauge(
        base + "_burn_fast",
        [this, c] { return Snapshot().of(c).fast_burn; },
        "Error-budget burn rate over the fast window (1.0 = budget pace)"));
    regs.push_back(registry.RegisterGauge(
        base + "_burn_slow",
        [this, c] { return Snapshot().of(c).slow_burn; },
        "Error-budget burn rate over the slow window"));
    regs.push_back(registry.RegisterGauge(
        base + "_window_total",
        [this, c] {
          return static_cast<double>(Snapshot().of(c).fast.total);
        },
        "Requests observed in the fast SLO window"));
  }
  return regs;
}

std::string SloTracker::Summary(bool include_idle) const {
  const Report report = Snapshot();
  std::string out;
  for (size_t i = 0; i < kOpClasses; ++i) {
    const ClassReport& r = report.classes[i];
    if (!include_idle && r.slow.total == 0) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s att=%.4f/%.4f burn=%.2f/%.2f n=%llu%s",
                  OpClassName(static_cast<OpClass>(i)),
                  r.fast.attainment(), r.slow.attainment(), r.fast_burn,
                  r.slow_burn,
                  static_cast<unsigned long long>(r.fast.total),
                  r.fast_ok && r.slow_ok ? "" : " VIOLATED");
    if (!out.empty()) out += "; ";
    out += buf;
  }
  return out.empty() ? "(no traffic)" : out;
}

}  // namespace sse::obs
