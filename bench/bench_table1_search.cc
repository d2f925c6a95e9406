// Experiment T1-search — Table 1, row "Searching computation".
//
// Paper claims: Scheme 1 search costs O(log u) (u = unique keywords, tree
// index); Scheme 2 costs O(log u + l/2x) where l is the chain length and x
// the average number of updates between two searches. This bench measures
// (a) B+-tree comparisons and wall-clock vs u for both schemes, and
// (b) Scheme 2's chain-walk steps vs x and vs l.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme1_server.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_server.h"
#include "sse/core/scheme3_client.h"
#include "sse/core/scheme3_server.h"
#include "sse/engine/scheme2_adapter.h"
#include "sse/engine/server_engine.h"
#include "sse/net/admission.h"
#include "sse/net/retry.h"
#include "sse/net/tcp.h"
#include "sse/obs/histogram.h"
#include "sse/obs/metrics_registry.h"
#include "sse/obs/slo.h"
#include "sse/obs/trace.h"

namespace sse::bench {
namespace {

void SweepUniqueKeywords() {
  std::printf(
      "T1-search (a): cost vs u, both schemes. Expect comparisons to grow\n"
      "logarithmically (x16 data -> +~4 comparisons), not linearly.\n\n");
  TablePrinter table({"system", "u_keywords", "tree_cmp/search", "search_us"});
  table.PrintHeader();
  for (core::SystemKind kind :
       {core::SystemKind::kScheme1, core::SystemKind::kScheme2}) {
    for (size_t u : {1024u, 4096u, 16384u, 65536u}) {
      DeterministicRandom rng(2);
      // Short chain: the client walks l-ctr hash steps per keyword per
      // update (inherent to the Lamport chain), so index construction at
      // u=64k needs a modest l to stay fast. Chain-length effects are
      // measured separately in sweep (c).
      core::SystemConfig config =
          BenchConfig(/*max_documents=*/1 << 12, /*chain_length=*/64);
      core::SseSystem sys = MustCreate(kind, config, &rng);
      // One document carrying many keywords per batch keeps doc count small
      // while u grows.
      const size_t docs_count = 512;
      const size_t keywords_per_doc = u / docs_count;
      std::vector<core::Document> docs;
      size_t kw_rank = 0;
      for (size_t i = 0; i < docs_count; ++i) {
        std::vector<std::string> kws;
        for (size_t k = 0; k < keywords_per_doc; ++k) {
          kws.push_back(phr::SyntheticKeyword(kw_rank++));
        }
        docs.push_back(core::Document::Make(i, "content", kws));
      }
      MustOk(sys.client->Store(docs), "store");

      // Measure steady-state searches over random keywords.
      const int probes = 64;
      auto comparisons_before = [&]() -> uint64_t {
        if (kind == core::SystemKind::kScheme1) {
          return static_cast<core::Scheme1Server*>(sys.server.get())
              ->index_comparisons();
        }
        return static_cast<core::Scheme2Server*>(sys.server.get())
            ->index_comparisons();
      };
      const uint64_t before = comparisons_before();
      Timer timer;
      DeterministicRandom probe_rng(3);
      for (int i = 0; i < probes; ++i) {
        MustValue(sys.client->Search(
                      phr::SyntheticKeyword(probe_rng.Next() % u)),
                  "search");
      }
      const double micros = timer.ElapsedMicros() / probes;
      const uint64_t comparisons = comparisons_before() - before;
      // Scheme 1 does 2 lookups per search (nonce + finish), scheme 2 one;
      // report comparisons per lookup-normalized search as measured.
      table.PrintRow({std::string(core::SystemKindName(kind)), FmtU(u),
                      Fmt("%.1f", static_cast<double>(comparisons) / probes),
                      Fmt("%.1f", micros)});
    }
  }
  table.PrintRule();
  std::printf("\n");
}

void SweepUpdateSearchRatio() {
  std::printf(
      "T1-search (b): Scheme 2 chain walk vs x (updates between searches).\n"
      "With Optimization 2, consecutive updates reuse one chain element, so\n"
      "walk steps per search stay ~1 regardless of x; with the optimization\n"
      "off, steps grow with x — the l/2x term of Table 1.\n\n");
  TablePrinter table({"opt2", "x_updates_between", "walk_steps/search",
                      "segments/search", "chain_spent"});
  table.PrintHeader();
  for (bool opt2 : {true, false}) {
    for (size_t x : {1u, 2u, 4u, 8u, 16u}) {
      DeterministicRandom rng(4);
      core::SystemConfig config = BenchConfig(/*max_documents=*/1 << 12,
                                              /*chain_length=*/4096);
      config.scheme.counter_after_search_only = opt2;
      config.scheme.server_plaintext_cache = false;  // isolate walk cost
      core::SseSystem sys = MustCreate(core::SystemKind::kScheme2, config, &rng);
      auto* client = static_cast<core::Scheme2Client*>(sys.client.get());
      auto* server = static_cast<core::Scheme2Server*>(sys.server.get());

      uint64_t doc_id = 0;
      const int cycles = 16;
      uint64_t walk_steps = 0;
      uint64_t segments = 0;
      int searches = 0;
      for (int c = 0; c < cycles; ++c) {
        for (size_t i = 0; i < x; ++i) {
          MustOk(sys.client->Store({core::Document::Make(
                     doc_id++, "d", {"hot", "cold" + std::to_string(c)})}),
                 "store");
        }
        const uint64_t steps_before = server->total_chain_steps();
        const uint64_t segs_before = server->total_segments_decrypted();
        MustValue(sys.client->Search("hot"), "search");
        walk_steps += server->total_chain_steps() - steps_before;
        segments += server->total_segments_decrypted() - segs_before;
        ++searches;
      }
      table.PrintRow({opt2 ? "on" : "off", FmtU(x),
                      Fmt("%.1f", static_cast<double>(walk_steps) / searches),
                      Fmt("%.1f", static_cast<double>(segments) / searches),
                      FmtU(client->counter())});
    }
  }
  table.PrintRule();
  std::printf("\n");
}

void SweepChainLength() {
  std::printf(
      "T1-search (c): Scheme 2 search cost vs chain length l. The first\n"
      "search after a long idle gap walks from the current counter element\n"
      "back to the segment keys; cost is bounded by l.\n\n");
  TablePrinter table({"chain_l", "idle_updates", "walk_steps_first_search"});
  table.PrintHeader();
  for (uint32_t l : {256u, 1024u, 4096u}) {
    DeterministicRandom rng(5);
    core::SystemConfig config = BenchConfig(1 << 12, l);
    config.scheme.counter_after_search_only = false;  // every update counts
    core::SseSystem sys = MustCreate(core::SystemKind::kScheme2, config, &rng);
    auto* server = static_cast<core::Scheme2Server*>(sys.server.get());

    // Store the probe keyword once, then churn other keywords to advance
    // the global counter far past it.
    MustOk(sys.client->Store({core::Document::Make(0, "d", {"stale"})}),
           "store");
    const size_t idle = l / 2;
    for (size_t i = 1; i <= idle; ++i) {
      MustOk(sys.client->Store({core::Document::Make(
                 i, "d", {"churn" + std::to_string(i)})}),
             "store");
    }
    const uint64_t before = server->total_chain_steps();
    MustValue(sys.client->Search("stale"), "search");
    table.PrintRow({FmtU(l), FmtU(idle),
                    FmtU(server->total_chain_steps() - before)});
  }
  table.PrintRule();
  std::printf("\n");
}

void SweepEngineThreads() {
  std::printf(
      "T1-search (d): multi-threaded search throughput on the sharded\n"
      "engine (scheme 1, 8 shards, shared document store). T per-thread\n"
      "clients issue searches against one engine; searches lock shards\n"
      "shared, so throughput scales with the cores the host actually has\n"
      "(a 1-core host is expected to stay near 1.0x).\n\n");
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());

  // One shared engine, preloaded once.
  DeterministicRandom rng(6);
  core::SystemConfig config = BenchConfig(/*max_documents=*/1 << 12,
                                          /*chain_length=*/64);
  config.engine_shards = 8;
  core::SseSystem loader = MustCreate(core::SystemKind::kScheme1, config, &rng);
  const size_t u = 4096;
  const size_t docs_count = 256;
  const size_t keywords_per_doc = u / docs_count;
  std::vector<core::Document> docs;
  size_t kw_rank = 0;
  for (size_t i = 0; i < docs_count; ++i) {
    std::vector<std::string> kws;
    for (size_t k = 0; k < keywords_per_doc; ++k) {
      kws.push_back(phr::SyntheticKeyword(kw_rank++));
    }
    docs.push_back(core::Document::Make(i, "content", kws));
  }
  MustOk(loader.client->Store(docs), "store");
  auto* eng = static_cast<engine::ServerEngine*>(loader.server.get());

  TablePrinter table(
      {"threads", "searches", "total_ms", "searches/s", "speedup"});
  table.PrintHeader();
  double base_rate = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    const int per_thread = 192;
    // Searching never mutates Scheme 1 client state, so each thread gets
    // its own client (same master key) over its own channel to the shared
    // engine — the contended path is the engine, as in a real deployment.
    std::vector<std::unique_ptr<DeterministicRandom>> rngs;
    std::vector<std::unique_ptr<net::InProcessChannel>> channels;
    std::vector<std::unique_ptr<core::Scheme1Client>> clients;
    for (size_t t = 0; t < threads; ++t) {
      rngs.push_back(std::make_unique<DeterministicRandom>(100 + t));
      channels.push_back(std::make_unique<net::InProcessChannel>(
          eng, config.channel));
      clients.push_back(MustValue(
          core::Scheme1Client::Create(BenchKey(), config.scheme,
                                      channels.back().get(), rngs.back().get()),
          "client"));
    }
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        DeterministicRandom probe(200 + t);
        for (int i = 0; i < per_thread; ++i) {
          MustValue(clients[t]->Search(
                        phr::SyntheticKeyword(probe.Next() % u)),
                    "search");
        }
      });
    }
    Timer timer;
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const double ms = timer.ElapsedMicros() / 1000.0;
    const double rate = threads * per_thread / (ms / 1000.0);
    if (threads == 1) base_rate = rate;
    table.PrintRow({FmtU(threads), FmtU(threads * per_thread),
                    Fmt("%.1f", ms), Fmt("%.0f", rate),
                    Fmt("%.2fx", base_rate > 0 ? rate / base_rate : 1.0)});
  }
  table.PrintRule();
  // The engine's series, as the stats RPC serves them.
  std::printf("\nengine metrics after the sweep:\n");
  std::istringstream scrape(obs::MetricsRegistry::Global().RenderPrometheus());
  for (std::string line; std::getline(scrape, line);) {
    if (line.rfind("sse_engine_", 0) == 0) std::printf("%s\n", line.c_str());
  }
  std::printf("\n");
}

// T1-search (e): latency distribution + tracing overhead, emitted as
// machine-readable BENCH_search.json so CI runs accumulate comparable
// numbers. Quantiles come from obs::LatencyHistogram (interpolated), and
// the same workload runs with span recording off and on to price the
// observability layer: the off mode is the default production path (span
// code compiled in, one thread-local check per instrumented site) and the
// acceptance budget for it is <2% vs the pre-obs baseline, which the on/off
// delta bounds from above since "off" only skips work the baseline also
// lacked.
void SweepLatencyProfile(const char* json_path,
                         const std::string& extra_json) {
  std::printf(
      "T1-search (e): scheme 1 search latency profile on the sharded\n"
      "engine, span recording off vs on. Written to %s.\n\n",
      json_path);

  // One preloaded scheme-1 engine, same shape as sweep (a)'s u=4096 point.
  DeterministicRandom rng(7);
  core::SystemConfig config = BenchConfig(/*max_documents=*/1 << 12,
                                          /*chain_length=*/64);
  config.engine_shards = 8;
  core::SseSystem sys = MustCreate(core::SystemKind::kScheme1, config, &rng);
  const size_t u = 4096;
  const size_t docs_count = 256;
  const size_t keywords_per_doc = u / docs_count;
  std::vector<core::Document> docs;
  size_t kw_rank = 0;
  for (size_t i = 0; i < docs_count; ++i) {
    std::vector<std::string> kws;
    for (size_t k = 0; k < keywords_per_doc; ++k) {
      kws.push_back(phr::SyntheticKeyword(kw_rank++));
    }
    docs.push_back(core::Document::Make(i, "content", kws));
  }
  MustOk(sys.client->Store(docs), "store");

  // Earlier revisions ran all of trace_off's probes to completion and
  // then all of trace_on's. The two blocks ran tens of milliseconds
  // apart, and whatever drifted between them — frequency scaling, page
  // cache state, the allocator settling — was billed entirely to
  // whichever mode ran second; a committed run once showed an 11%
  // "overhead" that a reordered run turned into a speedup. Sampling is
  // interleaved now: every iteration measures both modes back to back on
  // the same keyword, alternating which goes first, so drift lands evenly
  // on both sides and only the real delta survives the subtraction.
  struct Mode {
    const char* name;
    obs::LatencyHistogram hist;
    std::vector<uint64_t> samples_ns;
    obs::LatencyHistogram::Snapshot snap;
    void Record(uint64_t ns) {
      hist.Record(ns);
      samples_ns.push_back(ns);
    }
    // Mean of the fastest 99% of samples. Overhead deltas are computed
    // from this rather than the raw mean: on a small shared host a single
    // multi-millisecond scheduler preemption landing on one side of the
    // A/B pair shifts the raw mean by several percent while every
    // quantile through p99 stays identical, and the trim discards exactly
    // that contamination without hiding a real per-op cost (a true
    // overhead moves the whole distribution, trimmed mean included).
    double TrimmedMeanMicros() const {
      std::vector<uint64_t> sorted = samples_ns;
      std::sort(sorted.begin(), sorted.end());
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(sorted.size()) * 0.99));
      double sum = 0;
      for (size_t i = 0; i < keep; ++i) sum += static_cast<double>(sorted[i]);
      return sum / static_cast<double>(keep) / 1000.0;
    }
  };
  Mode modes[] = {{"trace_off", {}, {}, {}}, {"trace_on", {}, {}, {}}};
  const int warmup = 64;
  const int probes = 1024;
  DeterministicRandom probe_rng(8);
  auto probe_once = [&](bool traced, const std::string& kw) -> uint64_t {
    Timer timer;
    if (traced) {
      obs::ScopedSpan root("bench.search", obs::StartTrace());
      MustValue(sys.client->Search(kw), "search");
    } else {
      MustValue(sys.client->Search(kw), "search");
    }
    return static_cast<uint64_t>(timer.ElapsedMicros() * 1000.0);
  };
  for (int i = 0; i < warmup; ++i) {
    const std::string kw = phr::SyntheticKeyword(probe_rng.Next() % u);
    probe_once(false, kw);
    probe_once(true, kw);
  }
  for (int i = 0; i < probes; ++i) {
    const std::string kw = phr::SyntheticKeyword(probe_rng.Next() % u);
    const int first = i & 1;  // alternate which mode pays any cold cost
    modes[first].Record(probe_once(first == 1, kw));
    modes[1 - first].Record(probe_once(first == 0, kw));
  }
  TablePrinter table({"mode", "p50_us", "p95_us", "p99_us", "mean_us"});
  table.PrintHeader();
  for (Mode& mode : modes) {
    mode.snap = mode.hist.Snap();
    table.PrintRow({mode.name, Fmt("%.1f", mode.snap.quantile_micros(0.50)),
                    Fmt("%.1f", mode.snap.quantile_micros(0.95)),
                    Fmt("%.1f", mode.snap.quantile_micros(0.99)),
                    Fmt("%.1f", mode.snap.mean_micros())});
  }
  table.PrintRule();
  const double off_mean = modes[0].TrimmedMeanMicros();
  const double on_mean = modes[1].TrimmedMeanMicros();
  const double overhead_pct =
      off_mean > 0 ? (on_mean - off_mean) / off_mean * 100.0 : 0.0;
  std::printf(
      "\nspan-recording overhead (on vs off trimmed means): %+.2f%%\n",
      overhead_pct);

  // SLO-tracker overhead, measured the same interleaved way but over TCP:
  // SloTracker::Record runs only on the served path (TcpServer's dispatch
  // loop), so the in-process probes above never touch it. The same engine
  // is served for real and the process-wide recording gate is toggled per
  // leg; everything else — framing, socket hops, dispatch — is identical
  // between the two sides.
  auto slo_server = MustValue(
      net::TcpServer::Start(sys.server.get(), 0, net::TcpServer::Options{}),
      "slo tcp server");
  auto slo_channel = MustValue(net::TcpChannel::Connect(slo_server->port()),
                               "slo tcp connect");
  auto* s1_client = static_cast<core::Scheme1Client*>(sys.client.get());
  s1_client->set_channel(slo_channel.get());
  Mode slo_modes[] = {{"slo_off", {}, {}, {}}, {"slo_on", {}, {}, {}}};
  auto slo_probe_once = [&](bool slo_on, const std::string& kw) -> uint64_t {
    obs::SetSloRecordingEnabled(slo_on);
    Timer timer;
    MustValue(sys.client->Search(kw), "search");
    return static_cast<uint64_t>(timer.ElapsedMicros() * 1000.0);
  };
  for (int i = 0; i < warmup; ++i) {
    const std::string kw = phr::SyntheticKeyword(probe_rng.Next() % u);
    slo_probe_once(false, kw);
    slo_probe_once(true, kw);
  }
  for (int i = 0; i < probes; ++i) {
    const std::string kw = phr::SyntheticKeyword(probe_rng.Next() % u);
    const int first = i & 1;
    slo_modes[first].Record(slo_probe_once(first == 1, kw));
    slo_modes[1 - first].Record(slo_probe_once(first == 0, kw));
  }
  obs::SetSloRecordingEnabled(true);
  s1_client->set_channel(sys.channel.get());
  slo_server->Stop();
  for (Mode& mode : slo_modes) {
    mode.snap = mode.hist.Snap();
    table.PrintRow({mode.name, Fmt("%.1f", mode.snap.quantile_micros(0.50)),
                    Fmt("%.1f", mode.snap.quantile_micros(0.95)),
                    Fmt("%.1f", mode.snap.quantile_micros(0.99)),
                    Fmt("%.1f", mode.snap.mean_micros())});
  }
  table.PrintRule();
  const double slo_off_mean = slo_modes[0].TrimmedMeanMicros();
  const double slo_on_mean = slo_modes[1].TrimmedMeanMicros();
  const double slo_overhead_pct =
      slo_off_mean > 0 ? (slo_on_mean - slo_off_mean) / slo_off_mean * 100.0
                       : 0.0;
  std::printf(
      "slo-tracking overhead over TCP (on vs off trimmed means): %+.2f%%\n",
      slo_overhead_pct);

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"table1_search\",\n"
               "  \"system\": \"scheme1\",\n"
               "  \"unique_keywords\": %zu,\n"
               "  \"engine_shards\": %zu,\n"
               "  \"probes\": %d,\n",
               u, config.engine_shards, probes);
  auto emit_mode = [out](const Mode& mode) {
    std::fprintf(out,
                 "  \"%s\": {\"p50_us\": %.3f, \"p95_us\": %.3f, "
                 "\"p99_us\": %.3f, \"mean_us\": %.3f, \"count\": %llu},\n",
                 mode.name, mode.snap.quantile_micros(0.50),
                 mode.snap.quantile_micros(0.95),
                 mode.snap.quantile_micros(0.99), mode.snap.mean_micros(),
                 static_cast<unsigned long long>(mode.snap.count));
  };
  for (const Mode& mode : modes) emit_mode(mode);
  for (const Mode& mode : slo_modes) emit_mode(mode);
  std::fputs(extra_json.c_str(), out);
  std::fprintf(out, "  \"trace_overhead_pct\": %.3f,\n", overhead_pct);
  std::fprintf(out, "  \"slo_overhead_pct\": %.3f\n}\n", slo_overhead_pct);
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
}

// T1-search (f): the reactor network core under connection scale. A
// scheme-2 client (one-round search, so RTT-bound) runs pipelined
// MultiSearch over real TCP while a crowd of idle connections sits on the
// same server. With thread-per-connection serving the crowd would cost a
// thread each; on the reactor it costs two epoll registrations per
// connection and the latency profile should barely move. Returns a JSON
// fragment for BENCH_search.json.
std::string SweepReactorConnectionScale() {
  std::printf(
      "T1-search (f): reactor TCP MultiSearch latency vs idle-connection\n"
      "scale. The thread budget stays reactor_loops + dispatch_workers at\n"
      "every point; idle connections should not shift p50/p99.\n\n");

  // Idle connections need 2 fds each (client + accepted side); size the
  // crowd to the sandbox's fd limit.
  struct rlimit rl{};
  size_t fd_limit = 1024;
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0) {
    if (rl.rlim_cur < rl.rlim_max) {
      rl.rlim_cur = rl.rlim_max;
      setrlimit(RLIMIT_NOFILE, &rl);
      getrlimit(RLIMIT_NOFILE, &rl);
    }
    fd_limit = static_cast<size_t>(rl.rlim_cur);
  }
  size_t crowd = 1000;
  if (fd_limit < 2 * crowd + 256) crowd = (fd_limit - 256) / 2;

  DeterministicRandom rng(9);
  core::SchemeOptions scheme_options = BenchConfig(4096, 8192).scheme;
  scheme_options.batch_ops = true;
  engine::EngineOptions engine_opts;
  engine_opts.num_shards = 4;
  auto engine = MustValue(
      engine::ServerEngine::Create(
          std::make_unique<engine::Scheme2Adapter>(scheme_options),
          engine_opts),
      "engine");
  net::TcpServer::Options server_opts;
  server_opts.serialize_handler = false;  // the engine is thread-safe
  server_opts.reactor_loops = 2;
  server_opts.dispatch_workers = 4;
  auto server = MustValue(net::TcpServer::Start(engine.get(), 0, server_opts),
                          "tcp server");
  auto channel =
      MustValue(net::TcpChannel::Connect(server->port()), "tcp connect");
  net::RetryOptions retry_opts;
  retry_opts.batch_size = 16;
  retry_opts.max_inflight = 8;
  net::RetryingChannel retry(channel.get(), retry_opts, &rng);
  auto client = MustValue(
      core::Scheme2Client::Create(BenchKey(), scheme_options, &retry, &rng),
      "client");

  const size_t kVocab = 64;
  auto corpus =
      phr::GenerateDocuments(8, kVocab, /*keywords_per_doc=*/4, 0.8, 23);
  MustOk(client->Store(corpus), "corpus store");
  std::vector<std::string> keywords;
  for (size_t i = 0; i < kVocab; ++i)
    keywords.push_back(phr::SyntheticKeyword(i));

  auto connect_idle = [&]() -> int {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };

  struct Point {
    size_t idle;
    double p50_us;
    double p99_us;
    double frames_per_sec;
  };
  std::vector<Point> points;
  std::vector<int> idle_fds;
  TablePrinter table({"idle_conns", "active_conns", "p50_us", "p99_us",
                      "frames/s", "threads"});
  table.PrintHeader();
  for (const size_t idle : {size_t{0}, crowd}) {
    while (idle_fds.size() < idle) {
      const int fd = connect_idle();
      if (fd < 0) break;
      idle_fds.push_back(fd);
    }
    // Wait for the acceptor to absorb the crowd before measuring.
    while (server->connections_active() < idle_fds.size() + 1) {
      std::this_thread::yield();
    }

    const int warmup = 8;
    const int passes = 64;
    for (int i = 0; i < warmup; ++i) {
      MustValue(client->MultiSearch(keywords), "warmup multisearch");
    }
    obs::LatencyHistogram hist;
    const uint64_t frames_before =
        channel->stats().frames_sent + channel->stats().frames_received;
    Timer window;
    for (int i = 0; i < passes; ++i) {
      Timer timer;
      MustValue(client->MultiSearch(keywords), "multisearch");
      hist.Record(static_cast<uint64_t>(timer.ElapsedMicros() * 1000.0));
    }
    const double window_s = window.ElapsedMicros() / 1e6;
    const uint64_t frames =
        channel->stats().frames_sent + channel->stats().frames_received -
        frames_before;
    const auto snap = hist.Snap();
    const Point point{idle, snap.quantile_micros(0.50),
                      snap.quantile_micros(0.99),
                      window_s > 0 ? frames / window_s : 0.0};
    points.push_back(point);
    table.PrintRow({FmtU(idle), FmtU(server->connections_active()),
                    Fmt("%.1f", point.p50_us), Fmt("%.1f", point.p99_us),
                    Fmt("%.0f", point.frames_per_sec),
                    FmtU(server->serving_threads())});
  }
  table.PrintRule();
  std::printf("\n");
  for (const int fd : idle_fds) ::close(fd);

  std::string json = "  \"tcp_reactor\": {\n";
  json += "    \"multisearch_keywords\": " + std::to_string(kVocab) + ",\n";
  json += "    \"serving_threads\": " +
          std::to_string(server->serving_threads()) + ",\n";
  for (size_t i = 0; i < points.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    \"idle_%zu\": {\"p50_us\": %.3f, \"p99_us\": %.3f, "
                  "\"frames_per_sec\": %.1f}%s\n",
                  points[i].idle, points[i].p50_us, points[i].p99_us,
                  points[i].frames_per_sec,
                  i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  },\n";
  return json;
}

// A Scheme 3 system whose "hot" keyword has absorbed `updates` updates,
// each Stored with a unique churn keyword, so both the hot chain and the
// index grow per round. `update_us` receives the mean Store time.
core::SseSystem PreloadScheme3(size_t updates, bool resume_cache,
                               RandomSource* rng, double* update_us) {
  core::SystemConfig config = BenchConfig(/*max_documents=*/1 << 12,
                                          /*chain_length=*/4096);
  config.scheme.server_plaintext_cache = resume_cache;
  core::SseSystem sys = MustCreate(core::SystemKind::kScheme3, config, rng);
  Timer update_timer;
  for (size_t i = 0; i < updates; ++i) {
    MustOk(sys.client->Store({core::Document::Make(
               i, "d", {"hot", "churn" + std::to_string(i)})}),
           "store");
  }
  *update_us = update_timer.ElapsedMicros() / updates;
  return sys;
}

// The median of `samples` (which it reorders).
double Median(std::vector<double>& samples) {
  const auto mid = samples.begin() + static_cast<ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

// T1-search (g): forward-private Scheme 3 under an update-heavy workload.
// Every update burns one chain element and adds one encrypted index entry.
// Without the resume cache a search with counter c walks the hash chain
// c-1 steps and decrypts c entries, so search cost grows linearly with
// the updates a keyword has absorbed — the price of forward privacy
// relative to Scheme 2's search-anchored counters. With the cache, a
// repeat search walks and opens only the updates made since the
// keyword's last search. Search times are medians of kSearches timed
// searches, so that one host stall does not move a committed figure.
// Returns a JSON fragment for BENCH_search.json.
std::string SweepScheme3UpdateHeavy() {
  constexpr int kNewUpdates = 8;
  constexpr int kSearches = 64;
  std::printf(
      "T1-search (g): Scheme 3 (forward-private) update-heavy sweep. With\n"
      "the resume cache off, walk steps per search should equal updates-1\n"
      "and entries decrypted should equal updates: linear search cost is\n"
      "the forward-privacy tradeoff. update_us prices a Store of the hot\n"
      "keyword plus a fresh churn keyword (whose first key walks l-1 steps\n"
      "from the seed); hot_update_us prices a Store of the hot keyword\n"
      "alone. The resume columns run with the cache on: after a search,\n"
      "%d rounds of %d more hot updates, each followed by a search that\n"
      "should walk and open exactly those %d; resume_search_us still\n"
      "grows with the result documents it returns. Both search columns\n"
      "are medians of %d searches.\n\n",
      kSearches, kNewUpdates, kNewUpdates, kSearches);
  TablePrinter table({"updates", "update_us", "hot_update_us",
                      "walk_steps/search", "entries/search", "search_us",
                      "resume_search_us", "resume_steps", "resume_entries",
                      "index_bytes"});
  table.PrintHeader();

  struct Point {
    size_t updates;
    double update_us;
    double hot_update_us;
    double walk_steps;
    double entries;
    double search_us;
    double resume_walk_steps;
    double resume_entries;
    double resume_search_us;
    uint64_t index_bytes;
  };
  std::vector<Point> points;
  for (size_t updates : {16u, 64u, 256u, 1024u}) {
    Point point{};
    point.updates = updates;
    {
      DeterministicRandom rng(10);
      core::SseSystem sys =
          PreloadScheme3(updates, /*resume_cache=*/false, &rng,
                         &point.update_us);
      auto* server = static_cast<core::Scheme3Server*>(sys.server.get());
      const uint64_t steps_before = server->total_chain_steps();
      const uint64_t entries_before = server->total_entries_decrypted();
      std::vector<double> search_us;
      for (int i = 0; i < kSearches; ++i) {
        Timer search_timer;
        MustValue(sys.client->Search("hot"), "search");
        search_us.push_back(search_timer.ElapsedMicros());
      }
      point.search_us = Median(search_us);
      point.walk_steps =
          static_cast<double>(server->total_chain_steps() - steps_before) /
          kSearches;
      point.entries = static_cast<double>(server->total_entries_decrypted() -
                                          entries_before) /
                      kSearches;
      point.index_bytes = server->stored_index_bytes();

      // After the searches, so the hot chain they walk holds exactly
      // `updates` entries: the same number of Stores of the hot keyword
      // alone, which extend its chain and start none.
      Timer hot_timer;
      for (size_t i = 0; i < updates; ++i) {
        MustOk(sys.client->Store(
                   {core::Document::Make(updates + i, "d", {"hot"})}),
               "hot store");
      }
      point.hot_update_us = hot_timer.ElapsedMicros() / updates;
    }
    {
      DeterministicRandom rng(10);
      double update_us = 0;
      core::SseSystem sys =
          PreloadScheme3(updates, /*resume_cache=*/true, &rng, &update_us);
      auto* server = static_cast<core::Scheme3Server*>(sys.server.get());
      MustValue(sys.client->Search("hot"), "first search");
      uint64_t next_id = updates;
      std::vector<double> search_us;
      uint64_t steps = 0;
      uint64_t entries = 0;
      for (int i = 0; i < kSearches; ++i) {
        for (int u = 0; u < kNewUpdates; ++u) {
          MustOk(sys.client->Store(
                     {core::Document::Make(next_id++, "d", {"hot"})}),
                 "hot store");
        }
        const uint64_t steps_before = server->total_chain_steps();
        const uint64_t entries_before = server->total_entries_decrypted();
        Timer search_timer;
        MustValue(sys.client->Search("hot"), "resumed search");
        search_us.push_back(search_timer.ElapsedMicros());
        steps += server->total_chain_steps() - steps_before;
        entries += server->total_entries_decrypted() - entries_before;
      }
      point.resume_search_us = Median(search_us);
      point.resume_walk_steps = static_cast<double>(steps) / kSearches;
      point.resume_entries = static_cast<double>(entries) / kSearches;
    }
    points.push_back(point);
    table.PrintRow({FmtU(point.updates), Fmt("%.1f", point.update_us),
                    Fmt("%.1f", point.hot_update_us),
                    Fmt("%.1f", point.walk_steps), Fmt("%.1f", point.entries),
                    Fmt("%.1f", point.search_us),
                    Fmt("%.1f", point.resume_search_us),
                    Fmt("%.1f", point.resume_walk_steps),
                    Fmt("%.1f", point.resume_entries),
                    FmtU(point.index_bytes)});
  }
  table.PrintRule();
  std::printf("\n");

  std::string json = "  \"scheme3_update_heavy\": {\n";
  for (size_t i = 0; i < points.size(); ++i) {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "    \"updates_%zu\": {\"update_us\": %.3f, "
                  "\"hot_update_us\": %.3f, "
                  "\"walk_steps\": %.1f, \"entries_decrypted\": %.1f, "
                  "\"search_us\": %.3f, \"resume_walk_steps\": %.1f, "
                  "\"resume_entries_decrypted\": %.1f, "
                  "\"resume_search_us\": %.3f, \"index_bytes\": %llu}%s\n",
                  points[i].updates, points[i].update_us,
                  points[i].hot_update_us, points[i].walk_steps,
                  points[i].entries, points[i].search_us,
                  points[i].resume_walk_steps, points[i].resume_entries,
                  points[i].resume_search_us,
                  static_cast<unsigned long long>(points[i].index_bytes),
                  i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  },\n";
  return json;
}

// T1-search (h): brownout behavior at ~2x sustained saturation. A
// throttled scheme-2 engine (known capacity: dispatch_workers / 1ms) sits
// behind the admission controller and a bounded dispatch queue; two
// open-loop burst threads offer mixed traffic well past capacity while a
// closed-loop prober measures what admitted requests actually cost. The
// numbers that matter: mutations shed harder than searches (the brownout
// gradient), and the accepted-op p99 stays near queue-bound x handler
// cost instead of growing with the offered load. Returns a JSON fragment
// for BENCH_search.json.
std::string SweepOverloadBrownout() {
  std::printf(
      "T1-search (h): overload brownout — shed rate and accepted-op\n"
      "latency at ~2x saturation (admission: mutations shed at queue 12,\n"
      "searches at 24, dispatch hard cap 32, 1ms/op handler).\n\n");

  struct ThrottledHandler : public net::MessageHandler {
    explicit ThrottledHandler(net::MessageHandler* inner) : inner(inner) {}
    Result<net::Message> Handle(const net::Message& request) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return inner->Handle(request);
    }
    net::MessageHandler* inner;
  };

  DeterministicRandom rng(11);
  core::SystemConfig config = BenchConfig(/*max_documents=*/1 << 10,
                                          /*chain_length=*/64);
  config.engine_shards = 2;
  core::SseSystem sys = MustCreate(core::SystemKind::kScheme2, config, &rng);
  ThrottledHandler throttled(sys.server.get());

  net::QueueAdmissionController::Options admission_options;
  admission_options.max_queue_depth = 24;
  admission_options.mutation_queue_depth = 12;
  admission_options.retry_after_ms = 5;
  auto controller =
      std::make_shared<net::QueueAdmissionController>(admission_options);

  net::TcpServer::Options server_opts;
  server_opts.serialize_handler = false;
  server_opts.dispatch_workers = 2;
  server_opts.max_dispatch_queue = 32;
  server_opts.admission = controller;
  auto server = MustValue(net::TcpServer::Start(&throttled, 0, server_opts),
                          "tcp server");

  // Open-loop bursters: windows of 48 frames, 3:1 mutations to searches,
  // submitted without pacing. 2 threads x ~1 window/50ms is ~2000 frames/s
  // offered against ~2000/s capacity shared with the prober — sustained
  // past saturation once the prober and reply handling are added.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sent[2] = {{0}, {0}};  // [0]=search, [1]=mutation
  std::atomic<uint64_t> shed[2] = {{0}, {0}};
  std::vector<std::thread> bursters;
  for (int b = 0; b < 2; ++b) {
    bursters.emplace_back([&, b] {
      auto tcp = MustValue(net::TcpChannel::Connect(server->port()),
                           "burst connect");
      uint64_t seq = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<std::pair<net::Channel::CallId, int>> window;
        for (int i = 0; i < 48; ++i) {
          const int mutation = i % 4 != 0 ? 1 : 0;
          net::Message msg{mutation != 0 ? core::kMsgS2UpdateRequest
                                         : core::kMsgS2SearchRequest,
                           Bytes{static_cast<uint8_t>(i)}};
          msg.StampSession(2000 + static_cast<uint64_t>(b), seq++);
          window.emplace_back(tcp->Submit(msg), mutation);
          sent[mutation].fetch_add(1, std::memory_order_relaxed);
        }
        for (const auto& [id, mutation] : window) {
          auto reply = tcp->Await(id);
          if (!reply.ok() &&
              (reply.status().code() == StatusCode::kResourceExhausted ||
               reply.status().code() == StatusCode::kDeadlineExceeded)) {
            shed[mutation].fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Closed-loop prober: blocking search calls, latency of each *admitted*
  // reply recorded (a shed answer is not an accepted op).
  obs::LatencyHistogram accepted;
  uint64_t probe_calls = 0, probe_shed = 0;
  {
    auto tcp =
        MustValue(net::TcpChannel::Connect(server->port()), "probe connect");
    uint64_t seq = 1;
    Timer window;
    while (window.ElapsedMicros() < 1.5e6) {
      net::Message msg{core::kMsgS2SearchRequest, Bytes{0x01}};
      msg.StampSession(3000, seq++);
      Timer timer;
      auto reply = tcp->Call(msg);
      ++probe_calls;
      if (!reply.ok() &&
          reply.status().code() == StatusCode::kResourceExhausted) {
        ++probe_shed;
        continue;
      }
      accepted.Record(static_cast<uint64_t>(timer.ElapsedMicros() * 1000.0));
    }
  }
  stop.store(true);
  for (auto& t : bursters) t.join();
  server->Stop();

  const auto rate = [](uint64_t shed_n, uint64_t sent_n) {
    return sent_n > 0 ? static_cast<double>(shed_n) /
                            static_cast<double>(sent_n)
                      : 0.0;
  };
  const double mutation_shed_rate = rate(shed[1].load(), sent[1].load());
  const double search_shed_rate = rate(shed[0].load(), sent[0].load());
  const obs::LatencyHistogram::Snapshot snap = accepted.Snap();

  TablePrinter table({"class", "offered", "shed", "shed_rate"});
  table.PrintHeader();
  table.PrintRow({"mutation", FmtU(sent[1].load()), FmtU(shed[1].load()),
                  Fmt("%.3f", mutation_shed_rate)});
  table.PrintRow({"search", FmtU(sent[0].load()), FmtU(shed[0].load()),
                  Fmt("%.3f", search_shed_rate)});
  table.PrintRule();
  std::printf(
      "\naccepted probe ops: %llu of %llu (p50 %.0fus, p99 %.0fus); "
      "controller shed %llu total\n\n",
      static_cast<unsigned long long>(snap.count),
      static_cast<unsigned long long>(probe_calls),
      snap.quantile_micros(0.50), snap.quantile_micros(0.99),
      static_cast<unsigned long long>(controller->shed_total()));

  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"overload_brownout\": {\"mutations_offered\": %llu, "
      "\"mutation_shed_rate\": %.4f, \"searches_offered\": %llu, "
      "\"search_shed_rate\": %.4f, \"accepted_p50_us\": %.3f, "
      "\"accepted_p99_us\": %.3f, \"probe_calls\": %llu, "
      "\"probe_shed\": %llu},\n",
      static_cast<unsigned long long>(sent[1].load()), mutation_shed_rate,
      static_cast<unsigned long long>(sent[0].load()), search_shed_rate,
      snap.quantile_micros(0.50), snap.quantile_micros(0.99),
      static_cast<unsigned long long>(probe_calls),
      static_cast<unsigned long long>(probe_shed));
  return std::string(buf);
}

}  // namespace
}  // namespace sse::bench

int main(int argc, char** argv) {
  sse::bench::SweepUniqueKeywords();
  sse::bench::SweepUpdateSearchRatio();
  sse::bench::SweepChainLength();
  sse::bench::SweepEngineThreads();
  const std::string tcp_json = sse::bench::SweepReactorConnectionScale();
  const std::string s3_json = sse::bench::SweepScheme3UpdateHeavy();
  const std::string overload_json = sse::bench::SweepOverloadBrownout();
  sse::bench::SweepLatencyProfile(argc > 1 ? argv[1] : "BENCH_search.json",
                                  tcp_json + s3_json + overload_json);
  return 0;
}
