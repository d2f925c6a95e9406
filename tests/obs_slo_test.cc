// Unit tests for the sliding-window SLO tracker: bucket rotation across
// idle gaps and ring wraps, burn-rate arithmetic against the class
// objective, latency-threshold attainment vs availability, window
// clamping, concurrent recording (the TSan target), and the rendered
// gauge family / summary line.

#include "sse/obs/slo.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "sse/obs/metrics_registry.h"

namespace sse {
namespace {

using obs::OpClass;
using obs::SloOptions;
using obs::SloTracker;

SloOptions SmallRing() {
  SloOptions opts;
  opts.bucket_seconds = 1;
  opts.buckets = 16;
  opts.fast_window_s = 4;
  opts.slow_window_s = 8;
  return opts;
}

TEST(SloTrackerTest, EmptyWindowIsPerfect) {
  SloTracker tracker(SmallRing());
  const auto w = tracker.WindowAt(OpClass::kSearch, 4, /*now_s=*/1000);
  EXPECT_EQ(w.total, 0u);
  EXPECT_DOUBLE_EQ(w.availability(), 1.0);
  EXPECT_DOUBLE_EQ(w.attainment(), 1.0);
  EXPECT_DOUBLE_EQ(tracker.BurnRate(OpClass::kSearch, w), 0.0);
}

TEST(SloTrackerTest, CountsErrorsAndSlowSuccessesSeparately) {
  SloOptions opts = SmallRing();
  opts.latency_threshold_us[0] = 1000;  // search: 1 ms
  SloTracker tracker(opts);
  const int64_t now = 5000;
  // 7 good, 2 slow successes, 1 error.
  for (int i = 0; i < 7; ++i) {
    tracker.RecordAt(OpClass::kSearch, 100'000, true, now);
  }
  tracker.RecordAt(OpClass::kSearch, 5'000'000, true, now);
  tracker.RecordAt(OpClass::kSearch, 2'000'000, true, now);
  tracker.RecordAt(OpClass::kSearch, 100'000, false, now);
  const auto w = tracker.WindowAt(OpClass::kSearch, 4, now);
  EXPECT_EQ(w.total, 10u);
  EXPECT_EQ(w.errors, 1u);
  EXPECT_EQ(w.slow, 2u);
  // Availability only counts errors; attainment also counts slow.
  EXPECT_DOUBLE_EQ(w.availability(), 0.9);
  EXPECT_DOUBLE_EQ(w.attainment(), 0.7);
}

TEST(SloTrackerTest, ZeroThresholdDisablesLatencyCriterion) {
  SloOptions opts = SmallRing();
  opts.latency_threshold_us[0] = 0;
  SloTracker tracker(opts);
  tracker.RecordAt(OpClass::kSearch, 60'000'000'000ull, true, 100);
  const auto w = tracker.WindowAt(OpClass::kSearch, 4, 100);
  EXPECT_EQ(w.slow, 0u);
  EXPECT_DOUBLE_EQ(w.attainment(), 1.0);
}

TEST(SloTrackerTest, BurnRateAgainstObjective) {
  SloTracker tracker(SmallRing());  // search objective 0.999: 0.1% budget
  const int64_t now = 200;
  // 10% bad -> burn = 0.10 / 0.001 = 100.
  for (int i = 0; i < 90; ++i) {
    tracker.RecordAt(OpClass::kSearch, 0, true, now);
  }
  for (int i = 0; i < 10; ++i) {
    tracker.RecordAt(OpClass::kSearch, 0, false, now);
  }
  const auto w = tracker.WindowAt(OpClass::kSearch, 4, now);
  EXPECT_NEAR(tracker.BurnRate(OpClass::kSearch, w), 100.0, 1e-9);
}

TEST(SloTrackerTest, IdleGapsAreExcludedFromWindows) {
  SloTracker tracker(SmallRing());
  tracker.RecordAt(OpClass::kMutation, 0, false, /*now_s=*/100);
  // Four seconds later the sample is still inside the 8 s window...
  auto w = tracker.WindowAt(OpClass::kMutation, 8, 104);
  EXPECT_EQ(w.total, 1u);
  // ...but well past the window it is gone, without any explicit decay
  // pass having run (epoch mismatch, not zeroing, excludes it).
  w = tracker.WindowAt(OpClass::kMutation, 8, 130);
  EXPECT_EQ(w.total, 0u);
  EXPECT_DOUBLE_EQ(w.attainment(), 1.0);
}

TEST(SloTrackerTest, RingWrapReclaimsAndZeroesSlots) {
  SloOptions opts = SmallRing();  // 16 buckets
  SloTracker tracker(opts);
  const int64_t t0 = 1000;
  tracker.RecordAt(OpClass::kSearch, 0, false, t0);
  // A full ring later the same physical slot is re-claimed for the new
  // epoch; the old error must not leak into the new window.
  const int64_t t1 = t0 + 16;
  tracker.RecordAt(OpClass::kSearch, 0, true, t1);
  const auto w = tracker.WindowAt(OpClass::kSearch, 4, t1);
  EXPECT_EQ(w.total, 1u);
  EXPECT_EQ(w.errors, 0u);
}

TEST(SloTrackerTest, WindowLongerThanRingIsClamped) {
  SloTracker tracker(SmallRing());
  const int64_t now = 50;
  for (int64_t s = now - 15; s <= now; ++s) {
    tracker.RecordAt(OpClass::kControl, 0, true, s);
  }
  // Asking for an hour only sums the 16 live buckets once each.
  const auto w = tracker.WindowAt(OpClass::kControl, 3600, now);
  EXPECT_EQ(w.total, 16u);
}

TEST(SloTrackerTest, ClassesAreIndependent) {
  SloTracker tracker(SmallRing());
  tracker.RecordAt(OpClass::kSearch, 0, false, 100);
  EXPECT_EQ(tracker.WindowAt(OpClass::kSearch, 4, 100).errors, 1u);
  EXPECT_EQ(tracker.WindowAt(OpClass::kMutation, 4, 100).total, 0u);
  EXPECT_EQ(tracker.WindowAt(OpClass::kControl, 4, 100).total, 0u);
}

TEST(SloTrackerTest, SnapshotVerdictsAndWindows) {
  SloTracker tracker(SmallRing());  // search objective 0.999
  const int64_t now = 300;
  // Old traffic inside the slow (8 s) window only: all good.
  for (int i = 0; i < 4000; ++i) {
    tracker.RecordAt(OpClass::kSearch, 0, true, now - 6);
  }
  // Recent traffic inside the fast (4 s) window: one bad in fifty.
  tracker.RecordAt(OpClass::kSearch, 0, false, now);
  for (int i = 0; i < 49; ++i) {
    tracker.RecordAt(OpClass::kSearch, 0, true, now);
  }
  const auto report = tracker.SnapshotAt(now);
  const auto& r = report.of(OpClass::kSearch);
  EXPECT_EQ(r.fast.total, 50u);
  EXPECT_EQ(r.slow.total, 4050u);
  // Fast window: 1/50 bad, attainment 0.98 < 0.999 -> violated, burn 20x.
  EXPECT_FALSE(r.fast_ok);
  EXPECT_NEAR(r.fast_burn, 20.0, 1e-9);
  // Slow window dilutes the incident: 1/4050 bad, ~0.99975 > 0.999 -> ok.
  EXPECT_TRUE(r.slow_ok);
  EXPECT_LT(r.slow_burn, 1.0);
}

TEST(SloTrackerTest, MergeComposesWindows) {
  SloTracker::Window a{/*total=*/10, /*errors=*/1, /*slow=*/2};
  SloTracker::Window b{/*total=*/30, /*errors=*/3, /*slow=*/0};
  a.Merge(b);
  EXPECT_EQ(a.total, 40u);
  EXPECT_EQ(a.errors, 4u);
  EXPECT_EQ(a.slow, 2u);
  EXPECT_DOUBLE_EQ(a.availability(), 0.9);
}

TEST(SloTrackerTest, ConcurrentRecordersLoseNothingWithinAnEpoch) {
  SloOptions opts = SmallRing();
  SloTracker tracker(opts);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  const int64_t now = 700;  // one fixed epoch: no rotation races by design
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker, now, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tracker.RecordAt(OpClass::kSearch, 0, (t + i) % 10 != 0, now);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto w = tracker.WindowAt(OpClass::kSearch, 4, now);
  EXPECT_EQ(w.total, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(w.errors, static_cast<uint64_t>(kThreads * kPerThread / 10));
}

TEST(SloTrackerTest, ConcurrentRotationStaysSane) {
  // Threads record across advancing epochs while a reader snapshots.
  // The documented rotation race may drop a bounded number of samples;
  // the invariants are: no crash, no TSan report, and derived ratios
  // stay inside [0, 1].
  SloTracker tracker(SmallRing());
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto report = tracker.SnapshotAt(900);
      const auto& w = report.of(OpClass::kSearch).fast;
      EXPECT_GE(w.availability(), 0.0);
      EXPECT_LE(w.availability(), 1.0);
      EXPECT_GE(w.attainment(), 0.0);
      EXPECT_LE(w.attainment(), 1.0);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&tracker, t] {
      for (int i = 0; i < 20000; ++i) {
        tracker.RecordAt(OpClass::kSearch, 1000, i % 7 != 0,
                         890 + (i % 16) + t);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();
}

TEST(SloTrackerTest, RegistersGaugeFamily) {
  obs::MetricsRegistry registry;
  SloTracker tracker(SmallRing());
  auto regs = tracker.RegisterGauges(registry);
  tracker.Record(OpClass::kSearch, 0, true);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("sse_slo_search_attainment"), std::string::npos);
  EXPECT_NE(text.find("sse_slo_mutation_burn_fast"), std::string::npos);
  EXPECT_NE(text.find("sse_slo_control_window_total"), std::string::npos);
}

TEST(SloTrackerTest, SummarySkipsIdleAndFlagsViolations) {
  SloTracker tracker(SmallRing());  // search objective 0.999
  EXPECT_EQ(tracker.Summary(), "(no traffic)");
  for (int i = 0; i < 10; ++i) {
    tracker.Record(OpClass::kSearch, 0, i != 0);  // 10% errors
  }
  const std::string line = tracker.Summary();
  EXPECT_NE(line.find("search"), std::string::npos);
  EXPECT_NE(line.find("VIOLATED"), std::string::npos);
  // Idle classes stay out of the line unless asked for.
  EXPECT_EQ(line.find("control"), std::string::npos);
  EXPECT_NE(tracker.Summary(/*include_idle=*/true).find("control"),
            std::string::npos);
}

TEST(SloRecordingGateTest, TogglesProcessWide) {
  EXPECT_TRUE(obs::SloRecordingEnabled());
  obs::SetSloRecordingEnabled(false);
  EXPECT_FALSE(obs::SloRecordingEnabled());
  obs::SetSloRecordingEnabled(true);
  EXPECT_TRUE(obs::SloRecordingEnabled());
}

}  // namespace
}  // namespace sse
