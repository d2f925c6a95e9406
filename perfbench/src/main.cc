// sse_perfbench — whole client operations through the served durable stack.
//
// One process runs the stack `sse_cli serve` runs and drives it the way its
// clients do:
//
//   Scheme2Client/Scheme3Client -> RetryingChannel -> TcpChannel
//     -> TcpServer (reactor + dispatch pool) -> DurableServer (WAL, fsync
//     per commit, reply cache) -> ServerEngine (4 shards, reply cache off)
//
// Two data owners, each with its own key, id range, thread and TCP
// connection, run a closed loop of Store/Search calls generated from the
// seed before timing. Every search result is checked against a plaintext
// model of the owner's acknowledged Stores; a mismatch or a failed op fails
// the run (non-zero exit, "correct": false).
//
//   sse_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --dir SCRATCH [--smoke] [--trace-out FILE]
//
// --trace 0 builds the stack three times (set-up time is their median) and
// reports the end-to-end metrics of one timed phase. --trace 1 runs the
// same op sequence twice on fresh stacks, untraced and then traced, and
// reports the per-layer split (see ledger.h) and the tracing overhead.
// The last line of standard output is the JSON result.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"
#include "sse/core/durable_server.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme3_client.h"
#include "sse/core/scheme_descriptor.h"
#include "sse/crypto/keys.h"
#include "sse/engine/server_engine.h"
#include "sse/net/retry.h"
#include "sse/net/tcp.h"
#include "sse/obs/metrics_registry.h"
#include "taps.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sse;

constexpr size_t kOwners = 2;
constexpr size_t kShards = 4;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// CPUs the process pins itself to (see PinToCpus).
constexpr int kCpus = 2;

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// User + system CPU seconds of the whole process (client and server).
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Restricts the process (and every thread it starts later) to the first
/// `n` CPUs it may run on. On a shared VM an idle vCPU is descheduled by
/// the hypervisor, and waking a thread on it costs far more than the
/// sub-millisecond requests being timed; keeping the stack on two busy
/// vCPUs makes those wake-ups local and the timings repeatable.
void PinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int kept = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && kept < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++kept;
    }
  }
  if (kept > 0) sched_setaffinity(0, sizeof(pinned), &pinned);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

// ---- the stack --------------------------------------------------------

struct Owner {
  SystemRandom rng;
  std::unique_ptr<net::TcpChannel> tcp;
  std::unique_ptr<ChannelTap> wire_tap;
  std::unique_ptr<net::RetryingChannel> retry;
  std::unique_ptr<ChannelTap> rpc_tap;
  std::unique_ptr<core::SseClientInterface> client;
  std::unique_ptr<Model> model;
};

/// The serving stack plus both owners' client stacks. Taps are installed
/// only when `store` is non-null.
struct Stack {
  std::string dir;
  std::unique_ptr<engine::ServerEngine> engine;
  std::unique_ptr<EngineTap> engine_tap;
  std::unique_ptr<EnvTap> env_tap;
  std::unique_ptr<core::DurableServer> durable;
  std::unique_ptr<HandlerTap> handler_tap;
  std::unique_ptr<net::TcpServer> server;
  std::vector<std::unique_ptr<Owner>> owners;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    owners.clear();  // closes the client connections first
    if (server != nullptr) server->Stop();
    server.reset();
    handler_tap.reset();
    durable.reset();
    env_tap.reset();
    engine_tap.reset();
    engine.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

core::SystemConfig ConfigFor(const WorkloadSpec& spec) {
  // SchemeOptions defaults with batched rounds, as sse_cli's SSE_BATCH_SIZE
  // default turns on. The chain length stays at the default 4096, not
  // sse_cli's 16384 (see README.md, Configuration).
  core::SystemConfig config;
  config.scheme.batch_ops = true;
  config.scheme.plaintext_cache_max_entries = spec.cache_max_entries;
  return config;
}

std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec,
                                  const std::vector<OwnerInputs>& inputs,
                                  const std::string& dir, SpanStore* store) {
  const core::SchemeDescriptor* scheme = core::FindScheme(spec.scheme);
  const core::SystemConfig config = ConfigFor(spec);
  auto stack = std::make_unique<Stack>();
  stack->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!std::filesystem::create_directories(dir, ec)) {
    Die("cannot create " + dir);
  }

  std::unique_ptr<engine::SchemeAdapter> adapter = scheme->make_adapter(config);
  if (store != nullptr) {
    adapter = std::make_unique<AdapterTap>(std::move(adapter), store);
  }
  engine::EngineOptions engine_options;  // as sse_cli: 4 shards, no cache
  engine_options.num_shards = kShards;
  engine_options.enable_reply_cache = false;
  auto engine = engine::ServerEngine::Create(std::move(adapter), engine_options);
  if (!engine.ok()) Die("engine: " + engine.status().ToString());
  stack->engine = std::move(engine).value();
  core::PersistableHandler* inner = stack->engine.get();
  if (store != nullptr) {
    stack->engine_tap = std::make_unique<EngineTap>(inner, store);
    inner = stack->engine_tap.get();
  }

  core::DurableServer::Options durable_options;  // fsync on every commit
  durable_options.enable_reply_cache = true;
  if (store != nullptr) {
    stack->env_tap = std::make_unique<EnvTap>(storage::Env::Default(), store);
    durable_options.env = stack->env_tap.get();
  }
  auto durable = core::DurableServer::Open(dir, inner, durable_options);
  if (!durable.ok()) Die("durable: " + durable.status().ToString());
  stack->durable = std::move(durable).value();
  net::MessageHandler* handler = stack->durable.get();
  if (store != nullptr) {
    stack->handler_tap = std::make_unique<HandlerTap>(handler, store);
    handler = stack->handler_tap.get();
  }

  net::TcpServer::Options server_options;  // as `sse_cli serve`
  server_options.serialize_handler = false;
  auto server = net::TcpServer::Start(handler, 0, server_options);
  if (!server.ok()) Die("serve: " + server.status().ToString());
  stack->server = std::move(server).value();

  for (size_t o = 0; o < kOwners; ++o) {
    auto owner = std::make_unique<Owner>();
    auto tcp = net::TcpChannel::Connect(stack->server->port());
    if (!tcp.ok()) Die("connect: " + tcp.status().ToString());
    owner->tcp = std::move(tcp).value();
    net::Channel* channel = owner->tcp.get();
    if (store != nullptr) {
      owner->wire_tap = std::make_unique<ChannelTap>(channel, store, true);
      channel = owner->wire_tap.get();
    }
    // RetryOptions defaults are sse_cli's: 5 attempts, no deadline, no
    // retry budget, 64 ops per envelope, 4 envelopes in flight.
    owner->retry = std::make_unique<net::RetryingChannel>(
        channel, net::RetryOptions{}, &owner->rng);
    channel = owner->retry.get();
    if (store != nullptr) {
      owner->rpc_tap = std::make_unique<ChannelTap>(channel, store, false);
      channel = owner->rpc_tap.get();
    }
    auto key = crypto::MasterKey::FromPassphrase("perfbench owner " +
                                                 std::to_string(o));
    if (!key.ok()) Die("key: " + key.status().ToString());
    auto client = scheme->make_client(*key, config, channel, &owner->rng);
    if (!client.ok()) Die("client: " + client.status().ToString());
    owner->client = std::move(client).value();
    owner->model = std::make_unique<Model>(&inputs[o]);
    stack->owners.push_back(std::move(owner));
  }
  return stack;
}

/// Runs `body(owner_index)` on one thread per owner, all released at once;
/// returns the wall time from the release to the last owner finishing.
template <typename Body>
uint64_t RunOwners(Body body) {
  std::latch start(1);
  std::vector<std::thread> threads;
  for (size_t o = 0; o < kOwners; ++o) {
    threads.emplace_back([&start, &body, o] {
      start.wait();
      body(o);
    });
  }
  const uint64_t t0 = NowNs();
  start.count_down();
  for (std::thread& t : threads) t.join();
  return NowNs() - t0;
}

// ---- outcomes ---------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  std::map<std::string, uint64_t> by_status;  // non-OK ops by status code

  void Fail(const Status& s) {
    failed += 1;
    by_status[std::string(StatusCodeToString(s.code()))] += 1;
  }
  void Mismatch(const std::string& what) {
    if (mismatches++ == 0) first_mismatch = what;
  }
  /// A healthy run has no failed op and no mismatch; anything else fails it.
  bool ok() const { return failed == 0 && mismatches == 0; }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (mismatches == 0 && o.mismatches > 0) first_mismatch = o.first_mismatch;
    mismatches += o.mismatches;
    for (const auto& [k, v] : o.by_status) by_status[k] += v;
  }
};

struct OwnerPhase {
  Tally tally;
  std::vector<double> search_us;
  std::vector<double> update_us;
  uint64_t walk_steps = 0;
  uint64_t entries_decrypted = 0;
  uint64_t result_ids = 0;
};

void SearchWork(core::SseClientInterface* client, OwnerPhase* out) {
  if (auto* s2 = dynamic_cast<core::Scheme2Client*>(client)) {
    out->walk_steps += s2->last_search_chain_steps();
    out->entries_decrypted += s2->last_search_segments_decrypted();
  } else if (auto* s3 = dynamic_cast<core::Scheme3Client*>(client)) {
    out->walk_steps += s3->last_search_chain_steps();
    out->entries_decrypted += s3->last_search_entries_decrypted();
  }
}

/// One Store or Search, timed from the client call to its return, with the
/// result checked against (or applied to) the owner's model. A failed op is
/// tallied by status and kept out of the latency samples (it fails the run,
/// see Tally::ok). In a traced phase the call is the op's root span.
void RunOp(Owner& owner, const OwnerInputs& in, const Op& op, SpanStore* store,
           uint64_t op_id, OwnerPhase* out) {
  out->tally.attempted += 1;
  std::unique_ptr<SpanScope> scope;
  if (store != nullptr) {
    scope = std::make_unique<SpanScope>(store, Layer::kClient, Ctx{op_id, 0});
  }
  if (op.store) {
    const core::Document& doc = in.docs[op.doc];
    const uint64_t t0 = NowNs();
    const Status s = owner.client->Store({doc});
    const uint64_t dt = NowNs() - t0;
    scope.reset();
    if (!s.ok()) return out->tally.Fail(s);
    out->update_us.push_back(static_cast<double>(dt) / 1e3);
    owner.model->Apply(doc);
    return;
  }
  const uint64_t t0 = NowNs();
  Result<core::SearchOutcome> r = owner.client->Search(op.keyword);
  const uint64_t dt = NowNs() - t0;
  scope.reset();
  if (!r.ok()) return out->tally.Fail(r.status());
  out->search_us.push_back(static_cast<double>(dt) / 1e3);
  SearchWork(owner.client.get(), out);
  out->result_ids += r->ids.size();
  const std::string diff = owner.model->Check(op.keyword, *r);
  if (!diff.empty()) out->tally.Mismatch(diff);
}

// ---- set-up -----------------------------------------------------------

struct SetUp {
  std::unique_ptr<Stack> stack;
  double seconds = 0;
  std::vector<double> upload_us;  // every set-up Store's latency
  Tally tally;
};

/// Builds the stack, uploads each owner's corpus one document per Store,
/// then searches every corpus keyword once so caches and chain memos are
/// warm before timing.
SetUp BuildAndWarm(const WorkloadSpec& spec,
                   const std::vector<OwnerInputs>& inputs,
                   const std::string& dir, SpanStore* store) {
  SetUp out;
  const uint64_t t0 = NowNs();
  out.stack = BuildStack(spec, inputs, dir, store);
  std::vector<OwnerPhase> phases(kOwners);
  RunOwners([&](size_t o) {
    Owner& owner = *out.stack->owners[o];
    const OwnerInputs& in = inputs[o];
    Op op;
    op.store = true;
    for (op.doc = 0; op.doc < in.corpus_docs; ++op.doc) {
      RunOp(owner, in, op, nullptr, 0, &phases[o]);
    }
    Op search;
    for (const std::string& kw : in.warmup) {
      search.keyword = kw;
      RunOp(owner, in, search, nullptr, 0, &phases[o]);
    }
  });
  out.seconds = Seconds(NowNs() - t0);
  for (const OwnerPhase& p : phases) {
    out.tally.Merge(p.tally);
    out.upload_us.insert(out.upload_us.end(), p.update_us.begin(),
                         p.update_us.end());
  }
  return out;
}

// ---- counters read around the timed phase ----------------------------

/// `<series>_sum` or `<series>_count` from the registry's Prometheus text.
double PromValue(const std::string& text, const std::string& series) {
  const std::string key = "\n" + series + " ";
  const size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

struct Counters {
  uint64_t wire_bytes = 0;
  uint64_t frames = 0;
  uint64_t calls = 0;
  uint64_t attempts = 0;
  double dispatch_wait_sum = 0;  // histogram of microseconds
  double dispatch_wait_count = 0;
  double lock_wait_sum = 0;      // seconds
  double lock_wait_count = 0;
  uint64_t fsyncs = 0;
  uint64_t fsync_ns = 0;
  uint64_t appends = 0;
  uint64_t prf_calls = 0;
  uint64_t prf_ns = 0;
  uint64_t evictions = 0;
  uint64_t wal_bytes = 0;
};

Counters ReadCounters(const Stack& stack, const SpanStore* store) {
  Counters c;
  for (const auto& owner : stack.owners) {
    const net::ChannelStats& s = owner->tcp->stats();
    c.wire_bytes += s.TotalBytes();
    c.frames += s.frames_sent + s.frames_received;
    c.calls += owner->retry->retry_stats().calls;
    c.attempts += owner->retry->retry_stats().attempts;
  }
  const std::string prom =
      "\n" + obs::MetricsRegistry::Global().RenderPrometheus();
  c.dispatch_wait_sum = PromValue(prom, "sse_net_dispatch_queue_wait_us_sum");
  c.dispatch_wait_count =
      PromValue(prom, "sse_net_dispatch_queue_wait_us_count");
  c.lock_wait_sum = PromValue(prom, "sse_engine_lock_wait_seconds_sum");
  c.lock_wait_count = PromValue(prom, "sse_engine_lock_wait_seconds_count");
  const auto fsync = stack.durable->wal_fsync_latency();
  c.fsyncs = fsync.count;
  c.fsync_ns = fsync.total_nanos;
  c.appends = stack.durable->wal_append_latency().count;
  const auto prf = obs::CryptoTimers::Global().prf.Snap();
  c.prf_calls = prf.count;
  c.prf_ns = prf.total_nanos;
  c.evictions = obs::MetricsRegistry::Global()
                    .GetCounter("sse_s2_plaintext_cache_evictions_total")
                    ->Value();
  if (store != nullptr) c.wal_bytes = store->wal_bytes.load();
  return c;
}

// ---- timed phase ------------------------------------------------------

struct Phase {
  Tally tally;
  double wall_s = 0;
  uint64_t ok_ops = 0;
  std::vector<double> search_us;
  std::vector<double> update_us;
  uint64_t searches = 0;
  uint64_t updates = 0;
  uint64_t walk_steps = 0;
  uint64_t entries_decrypted = 0;
  uint64_t result_ids = 0;
  Counters before, after;
  double cpu_s = 0;  // process CPU time over the phase
  uint64_t index_bytes = 0;
  uint64_t client_state_bytes = 0;
  std::vector<uint8_t> op_class;  // by op id, traced phases only
  std::vector<Span> spans;
  uint64_t unjoined = 0;

  double ops_s() const { return static_cast<double>(ok_ops) / wall_s; }
};

Phase RunTimed(Stack& stack, const std::vector<OwnerInputs>& inputs,
               SpanStore* store) {
  Phase phase;
  const size_t per_owner = inputs[0].ops.size();
  if (store != nullptr) {
    phase.op_class.assign(1 + kOwners * per_owner, kSearch);
    for (size_t o = 0; o < kOwners; ++o) {
      for (size_t i = 0; i < per_owner; ++i) {
        if (inputs[o].ops[i].store) {
          phase.op_class[1 + o * per_owner + i] = kUpdate;
        }
      }
    }
    obs::SetCryptoTimingEnabled(true);
  }
  phase.before = ReadCounters(stack, store);
  if (store != nullptr) store->set_enabled(true);
  std::vector<OwnerPhase> owners(kOwners);
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t wall_ns = RunOwners([&](size_t o) {
    const OwnerInputs& in = inputs[o];
    for (size_t i = 0; i < in.ops.size(); ++i) {
      RunOp(*stack.owners[o], in, in.ops[i], store, 1 + o * per_owner + i,
            &owners[o]);
    }
  });
  if (store != nullptr) {
    store->set_enabled(false);
    obs::SetCryptoTimingEnabled(false);
    phase.spans = store->Take();
    phase.unjoined = store->unjoined();
  }
  phase.after = ReadCounters(stack, store);
  phase.wall_s = Seconds(wall_ns);
  phase.cpu_s = ProcessCpuSeconds() - cpu0;
  for (const OwnerPhase& p : owners) {
    phase.tally.Merge(p.tally);
    phase.search_us.insert(phase.search_us.end(), p.search_us.begin(),
                           p.search_us.end());
    phase.update_us.insert(phase.update_us.end(), p.update_us.begin(),
                           p.update_us.end());
    phase.walk_steps += p.walk_steps;
    phase.entries_decrypted += p.entries_decrypted;
    phase.result_ids += p.result_ids;
  }
  phase.ok_ops = phase.tally.attempted - phase.tally.failed;
  phase.updates = phase.update_us.size();
  phase.searches = phase.search_us.size();
  phase.index_bytes = stack.engine->stored_index_bytes();
  for (const auto& owner : stack.owners) {
    phase.client_state_bytes += owner->client->SerializeState().size();
  }
  return phase;
}

// ---- reporting --------------------------------------------------------

struct Percentile {
  double value = 0;
  size_t n = 0;
  size_t beyond = 0;  // samples strictly above the percentile's rank
};

/// Nearest-rank percentile of `v` (sorted in place).
Percentile Pct(std::vector<double>& v, double q) {
  Percentile p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))));
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

double Median(std::vector<double> v) { return Pct(v, 0.5).value; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintTally(const char* label, const Tally& t) {
  std::printf("%s: attempted=%llu failed=%llu failed_share=%.6f", label,
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed),
              t.attempted == 0 ? 0.0
                               : static_cast<double>(t.failed) /
                                     static_cast<double>(t.attempted));
  for (const auto& [code, n] : t.by_status) {
    std::printf(" %s=%llu", code.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf(" mismatches=%llu%s%s\n",
              static_cast<unsigned long long>(t.mismatches),
              t.mismatches > 0 ? " first: " : "", t.first_mismatch.c_str());
}

void PrintPct(const char* name, const Percentile& p, double q) {
  std::printf("  %-14s %12.1f us  (p%g of n=%zu, %zu beyond)\n", name,
              p.value, q * 100, p.n, p.beyond);
}

/// The end-to-end metrics of an untraced run. An op class absent from the
/// timed phase takes its latencies from the set-up Stores (search_hot has
/// no timed Stores; its update latencies are those of the corpus upload).
std::vector<Metric> EndToEnd(const Phase& ph, const std::vector<double>& setups,
                             const SetUp& last) {
  std::vector<double> search = ph.search_us;
  std::vector<double> update = ph.updates > 0 ? ph.update_us : last.upload_us;
  const Percentile s50 = Pct(search, 0.5), s99 = Pct(search, 0.99);
  const Percentile u50 = Pct(update, 0.5), u99 = Pct(update, 0.99);
  const double ops = static_cast<double>(ph.tally.attempted);
  const double wire =
      static_cast<double>(ph.after.wire_bytes - ph.before.wire_bytes) / ops;
  std::printf("timed phase: %llu ops in %.3f s\n",
              static_cast<unsigned long long>(ph.tally.attempted), ph.wall_s);
  PrintPct("search_p50_us", s50, 0.5);
  PrintPct("search_p99_us", s99, 0.99);
  if (ph.updates == 0) {
    std::printf("  (no timed Stores: update_* are the set-up upload's)\n");
  }
  PrintPct("update_p50_us", u50, 0.5);
  PrintPct("update_p99_us", u99, 0.99);
  std::printf("  setup_s runs:");
  for (double s : setups) std::printf(" %.3f", s);
  std::printf("\n");
  return {
      {"ops_s", ph.ops_s(), "ops/s"},
      {"search_p50_us", s50.value, "us"},
      {"search_p99_us", s99.value, "us"},
      {"update_p50_us", u50.value, "us"},
      {"update_p99_us", u99.value, "us"},
      {"cpu_us_per_op", ph.cpu_s * 1e6 / ops, "us"},
      {"wire_bytes_per_op", wire, "B"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", Median(setups), "s"},
  };
}

double PerOp(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> PerLayer(const Phase& ph, double untraced_ops_s,
                             const std::array<ClassLedger, 2>& ledger) {
  const Counters& a = ph.before;
  const Counters& b = ph.after;
  const double ops = static_cast<double>(ph.tally.attempted);
  const double searches = static_cast<double>(ph.searches);
  const double updates = static_cast<double>(ph.updates);
  const ClassLedger& s = ledger[kSearch];
  const ClassLedger& u = ledger[kUpdate];
  return {
      {"core.client.update_self_us", u.self_us[kStageClient], "us"},
      {"core.client.search_self_us", s.self_us[kStageClient], "us"},
      {"core.client.state_bytes", static_cast<double>(ph.client_state_bytes),
       "B"},
      {"net.rpc_self_us.search", s.self_us[kStageRpc], "us"},
      {"net.rpc_self_us.update", u.self_us[kStageRpc], "us"},
      {"net.transport_us.search", s.self_us[kStageTransport], "us"},
      {"net.transport_us.update", u.self_us[kStageTransport], "us"},
      {"net.dispatch_wait_us",
       PerOp(b.dispatch_wait_sum - a.dispatch_wait_sum,
             b.dispatch_wait_count - a.dispatch_wait_count) * 1e9,
       "us"},
      {"net.frames_per_op", PerOp(static_cast<double>(b.frames - a.frames), ops),
       "count"},
      {"net.attempts_per_call",
       PerOp(static_cast<double>(b.attempts - a.attempts),
             static_cast<double>(b.calls - a.calls)),
       "count"},
      {"core.durable.self_us.search", s.self_us[kStageDurable], "us"},
      {"core.durable.self_us.update", u.self_us[kStageDurable], "us"},
      {"core.durable.wal_fsync_us",
       PerOp(static_cast<double>(b.fsync_ns - a.fsync_ns),
             static_cast<double>(b.fsyncs - a.fsyncs)) / 1e3,
       "us"},
      {"core.durable.fsyncs_per_record",
       PerOp(static_cast<double>(b.fsyncs - a.fsyncs),
             static_cast<double>(b.appends - a.appends)),
       "ratio"},
      {"storage.self_us.update", u.self_us[kStageStorage], "us"},
      {"storage.sync_us", u.sync_us, "us"},
      {"storage.bytes_per_update",
       PerOp(static_cast<double>(b.wal_bytes - a.wal_bytes), updates), "B"},
      {"engine.self_us.search", s.self_us[kStageEngine], "us"},
      {"engine.self_us.update", u.self_us[kStageEngine], "us"},
      {"engine.lock_wait_us",
       PerOp(b.lock_wait_sum - a.lock_wait_sum,
             b.lock_wait_count - a.lock_wait_count) * 1e6,
       "us"},
      {"engine.merge_us", s.merge_us, "us"},
      {"engine.shards_per_op.search", s.shards_per_op, "count"},
      {"engine.shards_per_op.update", u.shards_per_op, "count"},
      {"core.scheme.search_us", s.self_us[kStageScheme], "us"},
      {"core.scheme.update_us", u.self_us[kStageScheme], "us"},
      {"core.scheme.walk_steps_per_search",
       PerOp(static_cast<double>(ph.walk_steps), searches), "count"},
      {"core.scheme.entries_decrypted_per_search",
       PerOp(static_cast<double>(ph.entries_decrypted), searches), "count"},
      {"core.scheme.cache_evictions",
       static_cast<double>(b.evictions - a.evictions), "count"},
      {"core.scheme.result_ids_per_search",
       PerOp(static_cast<double>(ph.result_ids), searches), "count"},
      {"core.scheme.index_bytes", static_cast<double>(ph.index_bytes), "B"},
      {"crypto.prf_calls_per_op",
       PerOp(static_cast<double>(b.prf_calls - a.prf_calls), ops), "count"},
      {"crypto.prf_us_per_op",
       PerOp(static_cast<double>(b.prf_ns - a.prf_ns), ops) / 1e3, "us"},
      {"traced_mean_us.search", s.mean_us, "us"},
      {"traced_mean_us.update", u.mean_us, "us"},
      {"unattributed_us.search", s.unattributed_us, "us"},
      {"unattributed_us.update", u.unattributed_us, "us"},
      {"trace_overhead_pct",
       PerOp(untraced_ops_s - ph.ops_s(), untraced_ops_s) * 100, "%"},
  };
}

void PrintLedger(const std::array<ClassLedger, 2>& ledger) {
  static const char* kStageNames[kStageCount] = {
      "core.client", "net.rpc", "net.transport", "core.durable",
      "storage",     "engine",  "core.scheme"};
  for (int c = 0; c < 2; ++c) {
    const ClassLedger& l = ledger[c];
    if (l.ops == 0) continue;
    std::printf("layer split, %s (%llu ops, timed mean %.1f us):\n",
                c == kSearch ? "search" : "update",
                static_cast<unsigned long long>(l.ops), l.mean_us);
    for (int i = 0; i < kStageCount; ++i) {
      std::printf("  %-14s %10.1f us  %5.1f%%\n", kStageNames[i],
                  l.self_us[i], 100 * l.self_us[i] / l.mean_us);
    }
    std::printf("  %-14s %10.1f us  %5.1f%%\n", "unattributed",
                l.unattributed_us, 100 * l.unattributed_us / l.mean_us);
  }
}

/// Chrome trace-event JSON: one row per op (tid = op id).
void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                 "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": "
                 "%llu, \"parent\": %llu}}\n",
                 i == 0 ? "" : ",", LayerName(s.layer),
                 static_cast<unsigned long long>(s.op),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir;
  bool smoke = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(value().c_str(), nullptr);
    else if (flag == "--trace") a.trace = std::atoi(value().c_str());
    else if (flag == "--dir") a.dir = value();
    else if (flag == "--smoke") a.smoke = true;
    else if (flag == "--trace-out") a.trace_out = value();
    else Die("unknown flag " + flag);
  }
  if (a.dir.empty()) Die("--dir is required");
  if (a.seconds <= 0) Die("--seconds must be > 0");
  return a;
}

int Main(int argc, char** argv) {
  // Die with the runner that started us, so a runner killed on its timeout
  // leaves no benchmark process behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  PinToCpus(kCpus);

  const size_t total_ops = std::max<size_t>(
      kOwners, static_cast<size_t>(spec->ops_per_second * args.seconds));
  const size_t per_owner = total_ops / kOwners;
  std::vector<OwnerInputs> inputs;
  for (size_t o = 0; o < kOwners; ++o) {
    inputs.push_back(GenerateOwner(*spec, args.seed, o, per_owner));
  }
  std::printf("perfbench workload=%s scheme=%s seed=%llu seconds=%g trace=%d "
              "owners=%zu shards=%zu corpus=%zu/owner vocabulary=%zu "
              "timed_ops=%zu\n",
              spec->name, spec->scheme,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, kOwners, kShards, spec->corpus_docs,
              spec->vocabulary, per_owner * kOwners);
  size_t searched = 0;  // distinct keywords the timed phase searches
  for (const OwnerInputs& in : inputs) {
    std::set<std::string> kws;
    for (const Op& op : in.ops) {
      if (!op.store) kws.insert(op.keyword);
    }
    searched += kws.size();
  }
  const std::string cache_bound =
      spec->cache_max_entries == 0
          ? "unbounded"
          : std::to_string(spec->cache_max_entries) + " per shard x " +
                std::to_string(kShards) + " shards";
  std::printf("searched keywords: %zu (both owners); Opt-1 cache bound: %s\n",
              searched, cache_bound.c_str());

  Tally all;
  if (args.trace == 0) {
    std::vector<double> setups;
    SetUp last;
    for (int k = 0; k < kSetups; ++k) {
      last = SetUp{};  // tears the previous stack down first
      last = BuildAndWarm(*spec, inputs, args.dir + "/wal", nullptr);
      setups.push_back(last.seconds);
      all.Merge(last.tally);
    }
    Phase phase = RunTimed(*last.stack, inputs, nullptr);
    all.Merge(phase.tally);
    const std::vector<Metric> metrics = EndToEnd(phase, setups, last);
    PrintTally("ops", all);
    last.stack.reset();
    PrintResult(all, metrics);
    return all.ok() ? 0 : 1;
  }

  // Traced: the same op sequence on two fresh stacks, untraced first.
  double untraced_ops_s = 0;
  {
    SetUp plain = BuildAndWarm(*spec, inputs, args.dir + "/wal", nullptr);
    all.Merge(plain.tally);
    Phase phase = RunTimed(*plain.stack, inputs, nullptr);
    all.Merge(phase.tally);
    untraced_ops_s = phase.ops_s();
  }
  SpanStore store;
  SetUp traced = BuildAndWarm(*spec, inputs, args.dir + "/wal", &store);
  all.Merge(traced.tally);
  Phase phase = RunTimed(*traced.stack, inputs, &store);
  all.Merge(phase.tally);
  traced.stack.reset();
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const auto ledger = BuildLedger(phase.spans, phase.op_class,
                                  {mean(phase.search_us), mean(phase.update_us)});
  PrintLedger(ledger);
  std::printf("spans=%zu unjoined=%llu untraced_ops_s=%.1f traced_ops_s=%.1f\n",
              phase.spans.size(),
              static_cast<unsigned long long>(phase.unjoined), untraced_ops_s,
              phase.ops_s());
  if (!args.trace_out.empty()) WriteTrace(args.trace_out, phase.spans);
  PrintTally("ops", all);

  bool accounting_ok = phase.unjoined == 0;
  for (const ClassLedger& l : ledger) {
    if (l.ops > 0 && std::fabs(l.unattributed_us) > 0.1 * l.mean_us) {
      accounting_ok = false;
    }
  }
  if (!accounting_ok) {
    std::printf("accounting check FAILED: unjoined spans or |unattributed| "
                "above 10%% of the traced mean\n");
  }
  PrintResult(all, PerLayer(phase, untraced_ops_s, ledger));
  if (!all.ok()) return 1;
  return args.smoke && !accounting_ok ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
