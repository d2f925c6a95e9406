// bench_load — open-loop load harness driving the real reactor TCP stack
// with valid Scheme 2 traffic, emitting BENCH_load.json.
//
// Methodology. The generator is *open-loop*: every operation has a
// scheduled intended arrival time t_i = start + i/rate drawn from a global
// schedule, and latency is measured from t_i, not from the moment the
// request happened to be written. A closed-loop harness (fixed workers in
// a request-reply lockstep) silently slows its own arrival process when
// the server stalls — the coordinated-omission trap — and so reports
// fantasy quantiles exactly in the regime that matters. Here a stalled
// server makes ops *late*, and the lateness lands in the histogram.
// Closed-loop mode is still used once, unpaced, to calibrate the server's
// capacity so the open-loop points can be placed relative to it.
//
// Sessions: ops are stamped with (client_id, seq) from a configurable
// pool of simulated sessions multiplexed over a few pipelined TCP
// connections — the reactor serves sessions, not sockets, so a million
// logical sessions ride comfortably on a handful of connections.
//
// Traffic is real protocol traffic, not garbage frames: searches carry
// trapdoors minted by a Scheme2Client over a Zipf-skewed keyword
// popularity distribution, updates are genuine S2UpdateRequest payloads
// captured from the client's own update protocol and replayed against
// disjoint keywords (HandleUpdate appends segments, so replays stay valid
// mutations). Error replies therefore mean something: on the nominal
// point everything should be ok; past the admission watermarks the shed
// rate and the SLO verdicts tell the overload story.
//
// Points: nominal (~50% of calibrated capacity), near-saturation (~90%),
// and past-watermark (~300%, beyond the admission controller's
// queue-depth watermarks). Each point reports achieved throughput,
// p50/p95/p99 from intended start, per-class shed rates, and SLO
// attainment verdicts computed client-side against the default
// obs::SloOptions thresholds; the server's own sse_slo_* gauge view and
// the tail of its event journal (brownout enter/exit) are scraped into
// the JSON as well.
//
// Usage: bench_load [--smoke] [output.json]
//   --smoke: small deterministic run for CI (ctest label "load"); a 300us
//   throttled handler pins capacity so the overload point sheds reliably
//   on any machine.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_messages.h"
#include "sse/net/admission.h"
#include "sse/net/channel.h"
#include "sse/net/tcp.h"
#include "sse/obs/events.h"
#include "sse/obs/histogram.h"
#include "sse/obs/slo.h"
#include "sse/obs/stats_rpc.h"
#include "sse/phr/workload.h"
#include "sse/repl/failover_channel.h"

namespace sse::bench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64: per-op deterministic randomness derived from the op index,
/// so the op mix and keyword choice do not depend on thread interleaving.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Zipf(s) sampler over ranks [0, n) via a precomputed CDF + binary
/// search. Rank 0 is the most popular keyword.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(uint64_t bits) const {
    const double u =
        static_cast<double>(bits >> 11) / static_cast<double>(1ull << 53);
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Captures the client's outgoing update-protocol messages and answers
/// them locally, so a pool of genuine S2UpdateRequest payloads can be
/// minted without touching the server.
class CaptureChannel : public net::Channel {
 public:
  Result<net::Message> Call(const net::Message& request) override {
    if (request.type != core::kMsgS2UpdateRequest) {
      return Status::InvalidArgument("capture channel only takes updates");
    }
    captured.push_back(request);
    core::S2UpdateAck ack;
    ack.keywords_updated = 1;
    net::Message reply = ack.ToMessage();
    reply.EchoSession(request);
    return reply;
  }
  const net::ChannelStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Clear(); }

  std::vector<net::Message> captured;

 private:
  net::ChannelStats stats_;
};

/// Handler decorator that pins per-op cost, so the smoke run's capacity —
/// and therefore its overload point — is machine-independent.
struct ThrottledHandler : public net::MessageHandler {
  ThrottledHandler(net::MessageHandler* inner, std::chrono::microseconds cost)
      : inner(inner), cost(cost) {}
  Result<net::Message> Handle(const net::Message& request) override {
    std::this_thread::sleep_for(cost);
    return inner->Handle(request);
  }
  net::MessageHandler* inner;
  std::chrono::microseconds cost;
};

struct ClassTally {
  obs::LatencyHistogram latency;  // from intended start, admitted ops only
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> good{0};  // ok AND under the class SLO threshold
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> errors{0};  // non-shed failures
};

struct PhaseResult {
  std::string name;
  double target_rate = 0;  // ops/s; 0 = unpaced (closed loop)
  double achieved_rate = 0;
  double wall_s = 0;
  uint64_t ops = 0;
  uint64_t late_ops = 0;  // sent >=1ms after their intended time
  obs::LatencyHistogram::Snapshot search;
  obs::LatencyHistogram::Snapshot update;
  uint64_t search_sent = 0, search_ok = 0, search_good = 0, search_shed = 0,
           search_errors = 0;
  uint64_t update_sent = 0, update_ok = 0, update_good = 0, update_shed = 0,
           update_errors = 0;
  double search_attainment = 1.0;
  double update_attainment = 1.0;
  bool search_slo_ok = true;
  bool update_slo_ok = true;
};

struct LoadConfig {
  size_t sessions = 1'000'000;
  size_t connections = 2;
  size_t window = 16;  // in-flight ops per connection (< kMaxOutstanding)
  double update_fraction = 0.10;
  double zipf_s = 0.99;
  size_t search_keywords = 2048;
  size_t update_pool = 64;
  uint64_t calibrate_ops = 4000;
  uint64_t ops_per_point = 24000;
  // Default obs::SloOptions verdict inputs.
  uint64_t search_threshold_us = 10'000;
  uint64_t update_threshold_us = 50'000;
  double search_objective = 0.999;
  double update_objective = 0.995;
};

/// One load point: `total_ops` ops offered at `rate` ops/s (0 = closed
/// loop, window-limited) across `config.connections` pipelined channels,
/// each keeping up to `window` calls in flight. Healthy points run a
/// shallow window; the past-watermark point runs a deep one, because an
/// open-loop overload has no client-side concurrency cap and a window
/// smaller than the admission watermark would throttle the flood before
/// the server ever got to shed it.
PhaseResult RunPhase(const char* name, uint16_t port, const LoadConfig& config,
                     size_t window_depth,
                     const std::vector<net::Message>& searches,
                     const ZipfSampler& zipf,
                     const std::vector<net::Message>& updates, double rate,
                     uint64_t total_ops, uint64_t phase_seed) {
  ClassTally tally[2];  // [0]=search, [1]=update
  std::atomic<uint64_t> next_op{0};
  std::atomic<uint64_t> late_ops{0};
  const uint64_t start_ns = NowNs() + 2'000'000;  // settle margin
  const double ns_per_op = rate > 0 ? 1e9 / rate : 0;

  auto worker = [&](size_t /*conn_index*/) {
    auto channel = MustValue(net::TcpChannel::Connect(port), "load connect");
    struct Pending {
      net::Channel::CallId id;
      uint64_t intended_ns;
      int cls;
    };
    std::vector<Pending> window;
    window.reserve(window_depth);
    auto reap = [&](const Pending& p) {
      auto reply = channel->Await(p.id);
      ClassTally& t = tally[p.cls];
      if (reply.ok()) {
        const uint64_t lat_ns = NowNs() - p.intended_ns;
        t.latency.Record(lat_ns);
        t.ok.fetch_add(1, std::memory_order_relaxed);
        const uint64_t threshold_us = p.cls == 0 ? config.search_threshold_us
                                                 : config.update_threshold_us;
        if (lat_ns <= threshold_us * 1000) {
          t.good.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (reply.status().code() == StatusCode::kResourceExhausted) {
        t.shed.fetch_add(1, std::memory_order_relaxed);
      } else {
        t.errors.fetch_add(1, std::memory_order_relaxed);
      }
    };
    while (true) {
      const uint64_t i = next_op.fetch_add(1, std::memory_order_relaxed);
      if (i >= total_ops) break;
      // Open loop: wait for the op's intended time if it is still in the
      // future; if the schedule is behind (server pushing back through the
      // submit windows), send immediately and let the lateness show up in
      // the from-intended-start latency.
      const uint64_t intended_ns =
          start_ns + static_cast<uint64_t>(ns_per_op * static_cast<double>(i));
      if (rate > 0) {
        // Spend schedule slack reaping completed replies instead of
        // sleeping through it: latency is measured at reap, so replies
        // left to sit until the window fills would be charged reap-lag
        // (~window/rate) they never actually took. Await on the oldest
        // pending op can overshoot the slack if that op is still queued
        // server-side; the overshoot is real backlog and is recorded
        // honestly as a late send below.
        // The >4 floor keeps the drain from blocking on an op submitted
        // microseconds ago: a head four submissions deep has had several
        // service times to complete, so Await returns ~immediately.
        while (window.size() > 4 && intended_ns > NowNs() + 20'000) {
          reap(window.front());
          window.erase(window.begin());
        }
        const uint64_t now = NowNs();
        if (intended_ns > now) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(intended_ns - now));
        } else if (now - intended_ns > 1'000'000) {
          late_ops.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const uint64_t bits = Mix64(phase_seed ^ i);
      const bool is_update =
          static_cast<double>(bits & 0xffff) <
          config.update_fraction * 65536.0;
      net::Message msg =
          is_update ? updates[i % updates.size()]
                    : searches[zipf.Sample(Mix64(bits))];
      // Session multiplexing: op i belongs to session i mod S with a
      // per-session monotonically increasing seq, so every op carries a
      // unique (client_id, seq) and the pipelined replies correlate.
      msg.StampSession(1'000'000'000ull + (i % config.sessions),
                       i / config.sessions + 1);
      tally[is_update ? 1 : 0].sent.fetch_add(1, std::memory_order_relaxed);
      if (window.size() >= window_depth) {
        reap(window.front());
        window.erase(window.begin());
      }
      window.push_back(Pending{channel->Submit(msg),
                               rate > 0 ? intended_ns : NowNs(),
                               is_update ? 1 : 0});
    }
    for (const Pending& p : window) reap(p);
  };

  const uint64_t wall_start = NowNs();
  std::vector<std::thread> threads;
  threads.reserve(config.connections);
  for (size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back(worker, c);
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      static_cast<double>(NowNs() - wall_start) / 1e9;

  PhaseResult r;
  r.name = name;
  r.target_rate = rate;
  r.ops = total_ops;
  r.wall_s = wall_s;
  r.achieved_rate =
      wall_s > 0 ? static_cast<double>(total_ops) / wall_s : 0;
  r.late_ops = late_ops.load();
  r.search = tally[0].latency.Snap();
  r.update = tally[1].latency.Snap();
  r.search_sent = tally[0].sent.load();
  r.search_ok = tally[0].ok.load();
  r.search_good = tally[0].good.load();
  r.search_shed = tally[0].shed.load();
  r.search_errors = tally[0].errors.load();
  r.update_sent = tally[1].sent.load();
  r.update_ok = tally[1].ok.load();
  r.update_good = tally[1].good.load();
  r.update_shed = tally[1].shed.load();
  r.update_errors = tally[1].errors.load();
  // SLO verdicts, client side: every offered op is in the denominator (a
  // shed op is a bad op from the caller's point of view).
  r.search_attainment =
      r.search_sent > 0 ? static_cast<double>(r.search_good) /
                              static_cast<double>(r.search_sent)
                        : 1.0;
  r.update_attainment =
      r.update_sent > 0 ? static_cast<double>(r.update_good) /
                              static_cast<double>(r.update_sent)
                        : 1.0;
  r.search_slo_ok = r.search_attainment >= config.search_objective;
  r.update_slo_ok = r.update_attainment >= config.update_objective;
  return r;
}

void PrintPhase(const PhaseResult& r) {
  std::printf(
      "%-16s target %8.0f/s achieved %8.0f/s over %5.2fs (%llu ops, "
      "%llu late)\n",
      r.name.c_str(), r.target_rate, r.achieved_rate, r.wall_s,
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.late_ops));
  std::printf(
      "  search: p50 %7.0fus p95 %7.0fus p99 %7.0fus | shed %5llu/%llu | "
      "attainment %.4f %s\n",
      r.search.quantile_micros(0.50), r.search.quantile_micros(0.95),
      r.search.quantile_micros(0.99),
      static_cast<unsigned long long>(r.search_shed),
      static_cast<unsigned long long>(r.search_sent), r.search_attainment,
      r.search_slo_ok ? "MET" : "VIOLATED");
  std::printf(
      "  update: p50 %7.0fus p95 %7.0fus p99 %7.0fus | shed %5llu/%llu | "
      "attainment %.4f %s\n",
      r.update.quantile_micros(0.50), r.update.quantile_micros(0.95),
      r.update.quantile_micros(0.99),
      static_cast<unsigned long long>(r.update_shed),
      static_cast<unsigned long long>(r.update_sent), r.update_attainment,
      r.update_slo_ok ? "MET" : "VIOLATED");
}

std::string PhaseJson(const PhaseResult& r) {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"name\": \"%s\", \"target_rate\": %.1f, "
      "\"achieved_rate\": %.1f, \"wall_s\": %.3f, \"ops\": %llu, "
      "\"late_ops\": %llu,\n"
      "     \"search\": {\"sent\": %llu, \"ok\": %llu, \"shed\": %llu, "
      "\"errors\": %llu, \"shed_rate\": %.4f, \"p50_us\": %.1f, "
      "\"p95_us\": %.1f, \"p99_us\": %.1f, \"attainment\": %.4f, "
      "\"slo_met\": %s},\n"
      "     \"update\": {\"sent\": %llu, \"ok\": %llu, \"shed\": %llu, "
      "\"errors\": %llu, \"shed_rate\": %.4f, \"p50_us\": %.1f, "
      "\"p95_us\": %.1f, \"p99_us\": %.1f, \"attainment\": %.4f, "
      "\"slo_met\": %s}}",
      r.name.c_str(), r.target_rate, r.achieved_rate, r.wall_s,
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.late_ops),
      static_cast<unsigned long long>(r.search_sent),
      static_cast<unsigned long long>(r.search_ok),
      static_cast<unsigned long long>(r.search_shed),
      static_cast<unsigned long long>(r.search_errors),
      r.search_sent > 0 ? static_cast<double>(r.search_shed) /
                              static_cast<double>(r.search_sent)
                        : 0.0,
      r.search.quantile_micros(0.50), r.search.quantile_micros(0.95),
      r.search.quantile_micros(0.99), r.search_attainment,
      r.search_slo_ok ? "true" : "false",
      static_cast<unsigned long long>(r.update_sent),
      static_cast<unsigned long long>(r.update_ok),
      static_cast<unsigned long long>(r.update_shed),
      static_cast<unsigned long long>(r.update_errors),
      r.update_sent > 0 ? static_cast<double>(r.update_shed) /
                              static_cast<double>(r.update_sent)
                        : 0.0,
      r.update.quantile_micros(0.50), r.update.quantile_micros(0.95),
      r.update.quantile_micros(0.99), r.update_attainment,
      r.update_slo_ok ? "true" : "false");
  return buf;
}

int Run(bool smoke, const char* json_path) {
  LoadConfig load;
  if (smoke) {
    load.sessions = 2000;
    load.connections = 2;
    load.window = 16;
    load.search_keywords = 256;
    load.calibrate_ops = 400;
    load.ops_per_point = 600;
  }
  std::printf(
      "bench_load: open-loop Scheme 2 load over the reactor TCP stack\n"
      "(%zu simulated sessions over %zu connections, window %zu, "
      "%.0f%% updates, Zipf s=%.2f over %zu keywords)%s\n\n",
      load.sessions, load.connections, load.window,
      load.update_fraction * 100.0, load.zipf_s, load.search_keywords,
      smoke ? " [SMOKE]" : "");

  // --- Build and seed the system -------------------------------------
  DeterministicRandom rng(42);
  core::SystemConfig config = BenchConfig(/*max_documents=*/1 << 12,
                                          /*chain_length=*/64);
  config.engine_shards = 4;
  core::SseSystem sys = MustCreate(core::SystemKind::kScheme2, config, &rng);
  auto* client = static_cast<core::Scheme2Client*>(sys.client.get());

  const size_t keywords_per_doc = 8;
  const size_t docs_count = load.search_keywords / keywords_per_doc;
  std::vector<core::Document> docs;
  size_t kw_rank = 0;
  for (size_t i = 0; i < docs_count; ++i) {
    std::vector<std::string> kws;
    for (size_t k = 0; k < keywords_per_doc; ++k) {
      kws.push_back(phr::SyntheticKeyword(kw_rank++));
    }
    docs.push_back(core::Document::Make(i, "content", kws));
  }
  MustOk(sys.client->Store(docs), "seed store");

  // --- Pre-mint the request pools ------------------------------------
  // Searches: one trapdoor per keyword, popularity assigned by rank.
  std::vector<net::Message> searches;
  searches.reserve(load.search_keywords);
  for (size_t k = 0; k < load.search_keywords; ++k) {
    auto trapdoor = MustValue(
        client->MakeTrapdoor(phr::SyntheticKeyword(k)), "trapdoor");
    core::S2SearchRequest req;
    req.token = std::move(trapdoor.token);
    req.chain_element = std::move(trapdoor.chain_element);
    searches.push_back(req.ToMessage());
  }
  ZipfSampler zipf(load.search_keywords, load.zipf_s);
  // Updates: genuine update-protocol messages against keywords disjoint
  // from the search set, captured once and replayed (append-only server
  // semantics keep every replay a valid mutation).
  CaptureChannel capture;
  client->set_channel(&capture);
  for (size_t j = 0; j < load.update_pool; ++j) {
    MustOk(client->FakeUpdate(
               {phr::SyntheticKeyword(load.search_keywords + j)}),
           "capture update");
  }
  client->set_channel(sys.channel.get());
  std::vector<net::Message> updates = std::move(capture.captured);
  std::printf("pools ready: %zu search trapdoors, %zu captured updates\n\n",
              searches.size(), updates.size());

  // --- Serve over TCP with admission watermarks -----------------------
  ThrottledHandler throttled(sys.server.get(),
                             std::chrono::microseconds(smoke ? 300 : 0));
  net::QueueAdmissionController::Options admission_options;
  // The healthy points keep at most connections x window calls in flight,
  // so an arriving frame finds fewer than that many queued ahead of it:
  // with the mutation watermark at connections x window, neither a
  // closed-loop window nor a burst of it after a late pacer wake-up sheds
  // anything. The past-watermark point's deeper window still crosses
  // both, and mutations brown out first at half the search depth.
  admission_options.mutation_queue_depth = load.connections * load.window;
  admission_options.max_queue_depth =
      2 * admission_options.mutation_queue_depth;
  admission_options.retry_after_ms = 5;
  auto controller =
      std::make_shared<net::QueueAdmissionController>(admission_options);
  net::TcpServer::Options server_opts;
  server_opts.serialize_handler = false;  // the sharded engine is thread-safe
  server_opts.reactor_loops = 1;
  server_opts.dispatch_workers = 2;
  server_opts.max_dispatch_queue = 128;
  server_opts.admission = controller;
  server_opts.brownout_exit_ms = 500;
  net::MessageHandler* handler =
      smoke ? static_cast<net::MessageHandler*>(&throttled)
            : sys.server.get();
  auto server =
      MustValue(net::TcpServer::Start(handler, 0, server_opts), "tcp server");

  // --- Calibrate capacity (closed loop, unpaced) ----------------------
  const PhaseResult cal =
      RunPhase("calibrate", server->port(), load, load.window, searches,
               zipf, updates,
               /*rate=*/0, load.calibrate_ops, /*phase_seed=*/1);
  PrintPhase(cal);
  // Capacity is goodput, not raw completion rate: shed replies complete in
  // microseconds and would inflate the ceiling the paced points are
  // placed against.
  const double capacity =
      cal.wall_s > 0
          ? static_cast<double>(cal.search_ok + cal.update_ok) / cal.wall_s
          : 0;
  std::printf("calibrated capacity (goodput): %.0f ops/s\n\n", capacity);

  // --- The three load points ------------------------------------------
  std::vector<PhaseResult> points;
  points.push_back(RunPhase("nominal", server->port(), load, load.window, searches,
                            zipf, updates, 0.5 * capacity, load.ops_per_point,
                            2));
  PrintPhase(points.back());
  points.push_back(RunPhase("near_saturation", server->port(), load,
                            load.window, searches, zipf, updates,
                            0.9 * capacity, load.ops_per_point, 3));
  PrintPhase(points.back());
  points.push_back(RunPhase("past_watermark", server->port(), load,
                            load.window * 4, searches, zipf, updates,
                            3.0 * capacity, load.ops_per_point, 4));
  PrintPhase(points.back());

  // --- Let the brownout clear, then scrape the server's own view ------
  std::this_thread::sleep_for(
      std::chrono::milliseconds(server_opts.brownout_exit_ms + 200));
  points.push_back(RunPhase("recovery", server->port(), load, load.window,
                            searches, zipf, updates, 0.25 * capacity,
                            std::max<uint64_t>(load.ops_per_point / 8, 64),
                            5));
  PrintPhase(points.back());

  double server_search_attainment = -1, server_mutation_attainment = -1,
         server_search_burn = -1;
  std::string events_json = "[]";
  {
    auto admin =
        MustValue(net::TcpChannel::Connect(server->port()), "admin connect");
    obs::StatsRequest req;
    req.include_events = true;
    req.events_tail = 32;
    auto reply = MustValue(admin->Call(req.ToMessage()), "stats call");
    auto stats = MustValue(obs::StatsReply::FromMessage(reply), "stats parse");
    repl::FindMetricValue(stats.prometheus_text, "sse_slo_search_attainment",
                          &server_search_attainment);
    repl::FindMetricValue(stats.prometheus_text,
                          "sse_slo_mutation_attainment",
                          &server_mutation_attainment);
    repl::FindMetricValue(stats.prometheus_text, "sse_slo_search_burn_fast",
                          &server_search_burn);
    if (!stats.events_json.empty()) events_json = stats.events_json;
  }
  const uint64_t journal_events = obs::EventJournal::Global().emitted();
  server->Stop();

  std::printf(
      "\nserver view: search attainment %.4f (burn %.2f), mutation "
      "attainment %.4f, %llu journal events\n",
      server_search_attainment, server_search_burn,
      server_mutation_attainment,
      static_cast<unsigned long long>(journal_events));

  // --- Emit BENCH_load.json -------------------------------------------
  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"load\",\n"
      "  \"system\": \"scheme2\",\n"
      "  \"smoke\": %s,\n"
      "  \"host_cores\": %u,\n"
      "  \"sessions\": %zu,\n"
      "  \"connections\": %zu,\n"
      "  \"window\": %zu,\n"
      "  \"update_fraction\": %.3f,\n"
      "  \"zipf_s\": %.2f,\n"
      "  \"search_keywords\": %zu,\n"
      "  \"admission\": {\"search_depth\": %zu, \"mutation_depth\": %zu, "
      "\"dispatch_cap\": %zu, \"workers\": %zu},\n"
      "  \"calibrated_capacity_ops_s\": %.1f,\n"
      "  \"calibration\": {\"search_sent\": %llu, \"search_shed\": %llu, "
      "\"update_sent\": %llu, \"update_shed\": %llu},\n"
      "  \"points\": [\n",
      smoke ? "true" : "false", std::thread::hardware_concurrency(),
      load.sessions, load.connections, load.window,
      load.update_fraction, load.zipf_s, load.search_keywords,
      admission_options.max_queue_depth,
      admission_options.mutation_queue_depth, server_opts.max_dispatch_queue,
      server_opts.dispatch_workers, capacity,
      static_cast<unsigned long long>(cal.search_sent),
      static_cast<unsigned long long>(cal.search_shed),
      static_cast<unsigned long long>(cal.update_sent),
      static_cast<unsigned long long>(cal.update_shed));
  for (size_t i = 0; i < points.size(); ++i) {
    std::fprintf(out, "%s%s\n", PhaseJson(points[i]).c_str(),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"server_view\": {\"search_attainment\": %.4f, "
               "\"mutation_attainment\": %.4f, \"search_burn_fast\": %.2f, "
               "\"journal_events\": %llu},\n"
               "  \"events_tail\": %s\n"
               "}\n",
               server_search_attainment, server_mutation_attainment,
               server_search_burn,
               static_cast<unsigned long long>(journal_events),
               events_json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

  // Smoke acceptance: the harness itself asserts the regime shape so the
  // ctest run fails loudly if the overload machinery stops working.
  if (smoke) {
    const PhaseResult& overload = points[2];
    if (overload.search_shed + overload.update_shed == 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: past-watermark point shed nothing\n");
      return 1;
    }
    const PhaseResult& nominal = points[0];
    if (nominal.search_errors + nominal.update_errors > 0) {
      std::fprintf(stderr, "SMOKE FAIL: nominal point saw hard errors\n");
      return 1;
    }
    if (journal_events == 0) {
      std::fprintf(stderr, "SMOKE FAIL: no journal events recorded\n");
      return 1;
    }
    std::printf("smoke checks passed\n");
  }
  return 0;
}

}  // namespace
}  // namespace sse::bench

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = "BENCH_load.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  return sse::bench::Run(smoke, json_path);
}
