// sse_cli — a small command-line encrypted document store.
//
// The "server" is a durable, sharded engine living in a directory; the
// "client" runs in the same process with a key derived from
// SSE_PASSPHRASE (or a default demo passphrase). Everything written to
// disk is ciphertext and searchable tokens. SSE_SCHEME picks the scheme
// from the descriptor table — any engine-capable entry works (scheme1,
// scheme2 [default], or the forward-private scheme3); it must stay the
// same across sessions of one vault, as must SSE_ENGINE_SHARDS (default
// 4), because snapshots are scheme- and partition-dependent.
//
// Delivery-semantics knobs (see DESIGN.md "Delivery semantics"):
//   SSE_RETRY_ATTEMPTS   total tries per call, default 5; 1 disables retries
//                        (calls are session-stamped either way)
//   SSE_DEADLINE_MS      per-call deadline across attempts, propagated on the
//                        wire to the server, default 0 (none)
//   SSE_REPLY_CACHE      1 (default) dedups stamped calls server-side so a
//                        retried update applies at most once; 0 disables
//   SSE_BATCH_SIZE       ops per kMsgBatch envelope for multi-keyword
//                        rounds, default 64; 0 disables batching entirely
//                        (monolithic per-round messages, the paper's wire
//                        format), 1 pipelines unbatched per-keyword ops
//   SSE_MAX_INFLIGHT     envelopes in flight before awaiting a reply,
//                        default 4
//   SSE_REACTOR_LOOPS    epoll loop threads in the serve-mode reactor,
//                        default 2; the serving thread budget is
//                        loops + dispatch workers at any connection count
//   SSE_REPLY_CACHE_MAX_ENTRIES  global cap on cached replies across all
//                        clients (LRU-evicted), default 0 = unbounded
//
// Replication knobs (serve mode only; see DESIGN.md "Replication"):
//   SSE_REPL_ROLE        primary | follower — serve through a repl::ReplNode
//                        instead of a standalone durable server; a restart
//                        keeps the role persisted in <dir>/repl.role
//   SSE_REPL_PEERS       comma-separated host:port follower list the node
//                        ships WAL records to while primary
//   SSE_REPL_ACK         async (default) | wait_one — whether a mutation
//                        waits for one follower ack before replying
//
// Usage:
//   sse_cli <dir> put <id> <content...> --kw <k1,k2,...>
//   sse_cli <dir> search <keyword>
//   sse_cli <dir> stats
//   sse_cli <dir> checkpoint      # snapshot the vault, compact its WAL
//   sse_cli <dir> serve [port]    # serve the vault over TCP until EOF
//
// Example:
//   ./build/examples/sse_cli /tmp/vault put 1 "meeting notes" --kw work,notes
//   ./build/examples/sse_cli /tmp/vault search notes
//   ./build/examples/sse_cli /tmp/vault serve 7700 &
//   ./build/examples/vault_admin stats 127.0.0.1:7700

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "sse/core/durable_server.h"
#include "sse/core/registry.h"
#include "sse/engine/server_engine.h"
#include "sse/net/retry.h"
#include "sse/net/tcp.h"
#include "sse/obs/metrics_registry.h"
#include "sse/obs/slo.h"
#include "sse/obs/stats_logger.h"
#include "sse/repl/node.h"
#include "sse/util/serde.h"

namespace {

using namespace sse;

int Usage() {
  std::fprintf(stderr,
               "usage: sse_cli <dir> put <id> <content> --kw <k1,k2,...>\n"
               "       sse_cli <dir> search <keyword>\n"
               "       sse_cli <dir> stats\n"
               "       sse_cli <dir> checkpoint\n"
               "       sse_cli <dir> serve [port]\n");
  return 2;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::string current;
  for (char c : s) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

// The client's private bookkeeping (counter, epoch, used ids) lives next
// to the server files. It holds no secrets — losing it only costs chain
// elements — but an attacker-controlled rollback could cause key reuse, so
// real deployments keep it on the client device.
std::string StatePath(const std::string& dir) { return dir + "/client.state"; }

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

// Overload-protection knobs shared by both serve paths (plain vault and
// replication node): a bounded dispatch queue plus an optional admission
// controller shedding by queue depth / queue wait.
void ApplyAdmissionEnv(net::TcpServer::Options* server_options) {
  server_options->max_dispatch_queue = EnvU64("SSE_MAX_DISPATCH_QUEUE", 0);
  const uint64_t max_queue = EnvU64("SSE_ADMISSION_MAX_QUEUE", 0);
  const uint64_t max_wait_ms = EnvU64("SSE_ADMISSION_MAX_WAIT_MS", 0);
  if (max_queue == 0 && max_wait_ms == 0) return;
  net::QueueAdmissionController::Options admission;
  admission.max_queue_depth = max_queue;
  admission.mutation_queue_depth = EnvU64("SSE_ADMISSION_MUTATION_QUEUE", 0);
  admission.max_queue_wait_ms = static_cast<double>(max_wait_ms);
  admission.retry_after_ms =
      static_cast<uint32_t>(EnvU64("SSE_ADMISSION_RETRY_AFTER_MS", 25));
  server_options->admission =
      std::make_shared<net::QueueAdmissionController>(admission);
}

// SLO knobs shared by both serve paths: per-request recording on/off (the
// process-wide gate; each serve runs one server), the brownout-exit quiet
// period, and the per-class latency thresholds of the process-wide
// tracker. Thresholds must land before the tracker's first use, which is
// why this runs at serve startup.
void ApplySloEnv(net::TcpServer::Options* server_options) {
  obs::SetSloRecordingEnabled(EnvU64("SSE_SLO_TRACKING", 1) != 0);
  server_options->brownout_exit_ms = EnvU64("SSE_BROWNOUT_EXIT_MS", 1000);
  const uint64_t search_ms = EnvU64("SSE_SLO_SEARCH_MS", 0);
  const uint64_t mutation_ms = EnvU64("SSE_SLO_MUTATION_MS", 0);
  const uint64_t control_ms = EnvU64("SSE_SLO_CONTROL_MS", 0);
  if (search_ms == 0 && mutation_ms == 0 && control_ms == 0) return;
  obs::SloOptions slo;
  if (search_ms > 0) slo.latency_threshold_us[0] = search_ms * 1000;
  if (mutation_ms > 0) slo.latency_threshold_us[1] = mutation_ms * 1000;
  if (control_ms > 0) slo.latency_threshold_us[2] = control_ms * 1000;
  if (!obs::SloTracker::ConfigureGlobal(slo)) {
    std::fprintf(stderr,
                 "warning: SSE_SLO_*_MS ignored (tracker already live)\n");
  }
}

Bytes LoadStateBytes(const std::string& dir) {
  Bytes raw;
  std::FILE* f = std::fopen(StatePath(dir).c_str(), "rb");
  if (f == nullptr) return raw;
  int c;
  while ((c = std::fgetc(f)) != EOF) raw.push_back(static_cast<uint8_t>(c));
  std::fclose(f);
  return raw;
}

void SaveStateBytes(const std::string& dir, const Bytes& state) {
  std::FILE* f = std::fopen(StatePath(dir).c_str(), "wb");
  if (f == nullptr) return;
  std::fwrite(state.data(), 1, state.size(), f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string dir = argv[1];
  const std::string command = argv[2];
  mkdir(dir.c_str(), 0755);  // idempotent

  const char* pass_env = std::getenv("SSE_PASSPHRASE");
  const std::string passphrase =
      pass_env != nullptr ? pass_env : "sse-cli-demo-passphrase";

  // The active scheme comes from the descriptor table; the vault only
  // works with engine-capable schemes (the engine provides sharding and
  // the durable shell's WAL framing).
  const char* scheme_env = std::getenv("SSE_SCHEME");
  const std::string scheme_name =
      scheme_env != nullptr ? scheme_env : "scheme2";
  const core::SchemeDescriptor* scheme = core::FindScheme(scheme_name);
  if (scheme == nullptr || !scheme->traits.engine_capable) {
    std::fprintf(stderr, "SSE_SCHEME=%s is not an engine-capable scheme; "
                 "pick one of:",
                 scheme_name.c_str());
    for (const core::SchemeDescriptor& d : core::AllSchemes()) {
      if (d.traits.engine_capable) {
        std::fprintf(stderr, " %.*s", static_cast<int>(d.name.size()),
                     d.name.data());
      }
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  core::SystemConfig config;
  config.scheme.max_documents = 1 << 16;
  config.scheme.chain_length = 1 << 14;
  const uint64_t batch_size = EnvU64("SSE_BATCH_SIZE", 64);
  config.scheme.batch_ops = batch_size > 0;
  // Scheme 2 Optimization-1 cache bound (0 = unbounded, paper behavior).
  config.scheme.plaintext_cache_max_entries =
      EnvU64("SSE_S2_CACHE_MAX_ENTRIES", 0);

  const bool reply_cache = EnvU64("SSE_REPLY_CACHE", 1) != 0;

  engine::EngineOptions engine_options;
  engine_options.num_shards = EnvU64("SSE_ENGINE_SHARDS", 4);
  // The durable shell's cache (which survives restarts) does the dedup;
  // the engine's in-memory one would only duplicate it.
  engine_options.enable_reply_cache = false;
  // Replicated serving: SSE_REPL_ROLE turns `serve` into a repl::ReplNode
  // (primary journals + ships WAL records to SSE_REPL_PEERS; follower
  // applies the stream and serves stale reads). The node owns its durable
  // state, so this path must not open the directory a second time below.
  if (const char* repl_role = std::getenv("SSE_REPL_ROLE");
      repl_role != nullptr && command == "serve") {
    repl::ReplNode::Options node_options;
    if (std::strcmp(repl_role, "primary") == 0) {
      node_options.initial_role = repl::ReplNode::Role::kPrimary;
    } else if (std::strcmp(repl_role, "follower") == 0) {
      node_options.initial_role = repl::ReplNode::Role::kFollower;
    } else {
      std::fprintf(stderr, "SSE_REPL_ROLE must be primary or follower\n");
      return 2;
    }
    if (const char* peers = std::getenv("SSE_REPL_PEERS")) {
      for (const std::string& peer : SplitCommas(peers)) {
        repl::ReplSender::Endpoint endpoint;
        const size_t colon = peer.rfind(':');
        if (colon != std::string::npos) {
          endpoint.host = peer.substr(0, colon);
          endpoint.port = static_cast<uint16_t>(
              std::strtoul(peer.c_str() + colon + 1, nullptr, 10));
        } else {
          endpoint.port =
              static_cast<uint16_t>(std::strtoul(peer.c_str(), nullptr, 10));
        }
        node_options.peers.push_back(std::move(endpoint));
      }
    }
    if (const char* ack = std::getenv("SSE_REPL_ACK")) {
      if (std::strcmp(ack, "wait_one") == 0) {
        node_options.sender.ack_mode = repl::ReplSender::AckMode::kWaitOne;
      } else if (std::strcmp(ack, "async") != 0) {
        std::fprintf(stderr, "SSE_REPL_ACK must be async or wait_one\n");
        return 2;
      }
    }
    node_options.durable.enable_reply_cache = reply_cache;
    node_options.durable.reply_cache.max_total_entries =
        EnvU64("SSE_REPLY_CACHE_MAX_ENTRIES", 0);
    auto node = repl::ReplNode::Open(
        dir,
        [scheme, config,
         engine_options]() -> std::unique_ptr<core::PersistableHandler> {
          auto engine = engine::ServerEngine::Create(
              scheme->make_adapter(config), engine_options);
          return engine.ok() ? std::move(*engine) : nullptr;
        },
        node_options);
    if (!node.ok()) {
      std::fprintf(stderr, "repl node open failed: %s\n",
                   node.status().ToString().c_str());
      return 1;
    }
    const uint16_t port = static_cast<uint16_t>(
        argc >= 4 ? std::strtoul(argv[3], nullptr, 10) : 0);
    net::TcpServer::Options server_options;
    server_options.serialize_handler = false;
    // The node answers kMsgStats itself (with its sse_repl_* series
    // injected); the TCP layer's own responder would shadow it.
    server_options.serve_stats = false;
    if (const char* loops = std::getenv("SSE_REACTOR_LOOPS")) {
      server_options.reactor_loops =
          std::max(1ul, std::strtoul(loops, nullptr, 10));
    }
    ApplyAdmissionEnv(&server_options);
    ApplySloEnv(&server_options);
    auto tcp = net::TcpServer::Start(node->get(), port, server_options);
    if (!tcp.ok()) {
      std::fprintf(stderr, "serve failed: %s\n",
                   tcp.status().ToString().c_str());
      return 1;
    }
    obs::StatsLogger stats_logger;
    std::printf("serving %s (scheme %s) as replication %s on 127.0.0.1:%u "
                "(%zu peer(s); EOF on stdin stops)\n",
                dir.c_str(), std::string(scheme->name).c_str(), repl_role, (*tcp)->port(),
                node_options.peers.size());
    std::fflush(stdout);
    while (std::fgetc(stdin) != EOF) {
    }
    (*tcp)->Stop();
    return 0;
  }

  auto server = engine::ServerEngine::Create(scheme->make_adapter(config),
                                             engine_options);
  if (!server.ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  core::DurableServer::Options durable_options;
  durable_options.enable_reply_cache = reply_cache;
  durable_options.reply_cache.max_total_entries =
      EnvU64("SSE_REPLY_CACHE_MAX_ENTRIES", 0);
  auto durable = core::DurableServer::Open(dir, server->get(), durable_options);
  if (!durable.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 durable.status().ToString().c_str());
    return 1;
  }
  if (command == "checkpoint") {
    // The snapshot is the served engine's state, so only this stack (same
    // SSE_SCHEME and SSE_ENGINE_SHARDS) can write one the vault reopens.
    Status s = (*durable)->Checkpoint();
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint written; old WAL segments compacted\n");
    return 0;
  }
  net::InProcessChannel channel(durable->get());

  // Exactly-once calls: session-stamped, retried with backoff, deduped by
  // the server's reply cache (in-process the link cannot actually fail,
  // but the vault accepts stamped traffic from any transport).
  net::RetryOptions retry_options;
  retry_options.max_attempts =
      static_cast<int>(EnvU64("SSE_RETRY_ATTEMPTS", 5));
  retry_options.call_deadline_ms =
      static_cast<double>(EnvU64("SSE_DEADLINE_MS", 0));
  retry_options.retry_budget =
      static_cast<double>(EnvU64("SSE_RETRY_BUDGET", 0));
  retry_options.batch_size = static_cast<int>(batch_size);
  retry_options.max_inflight = static_cast<int>(EnvU64("SSE_MAX_INFLIGHT", 4));
  SystemRandom& rng = SystemRandom::Instance();
  net::RetryingChannel retry(&channel, retry_options, &rng);

  auto key = crypto::MasterKey::FromPassphrase(passphrase);
  if (!key.ok()) return 1;
  auto client = scheme->make_client(*key, config, &retry, &rng);
  if (!client.ok()) {
    std::fprintf(stderr, "client failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  // Rehydrate the client's protocol state from the previous session.
  Bytes saved = LoadStateBytes(dir);
  if (!saved.empty()) {
    Status restored = (*client)->RestoreState(saved);
    if (!restored.ok()) {
      std::fprintf(stderr, "client state corrupt: %s\n",
                   restored.ToString().c_str());
      return 1;
    }
  }

  if (command == "put") {
    if (argc < 6 || std::strcmp(argv[argc - 2], "--kw") != 0) return Usage();
    const uint64_t id = std::strtoull(argv[3], nullptr, 10);
    std::string content;
    for (int i = 4; i < argc - 2; ++i) {
      if (!content.empty()) content += " ";
      content += argv[i];
    }
    auto keywords = SplitCommas(argv[argc - 1]);
    Status s = (*client)->Store({core::Document::Make(id, content, keywords)});
    if (!s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
    SaveStateBytes(dir, (*client)->SerializeState());
    std::printf("stored document %llu with %zu keyword(s)\n",
                static_cast<unsigned long long>(id), keywords.size());
  } else if (command == "search") {
    if (argc != 4) return Usage();
    auto outcome = (*client)->Search(argv[3]);
    if (!outcome.ok()) {
      std::fprintf(stderr, "search failed: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    SaveStateBytes(dir, (*client)->SerializeState());
    std::printf("%zu match(es)\n", outcome->ids.size());
    for (const auto& [id, content] : outcome->documents) {
      std::printf("  #%llu: %s\n", static_cast<unsigned long long>(id),
                  BytesToString(content).c_str());
    }
  } else if (command == "stats") {
    std::printf("scheme: %s (%s)\n", std::string(scheme->name).c_str(),
                std::string(scheme->summary).c_str());
    std::printf("documents: %zu\nunique keywords: %zu\nindex bytes: %llu\n"
                "shards: %zu\n",
                (*server)->document_count(), (*server)->unique_keywords(),
                static_cast<unsigned long long>(
                    (*server)->stored_index_bytes()),
                (*server)->num_shards());
    // The engine's and the durable shell's series (its reply cache among
    // them), as the stats RPC serves them.
    std::istringstream scrape(
        obs::MetricsRegistry::Global().RenderPrometheus());
    for (std::string line; std::getline(scrape, line);) {
      if (line.rfind("sse_engine_", 0) == 0 ||
          line.rfind("sse_durable_", 0) == 0) {
        std::printf("%s\n", line.c_str());
      }
    }
  } else if (command == "serve") {
    // Expose the durable vault over TCP. The engine is thread-safe and the
    // durable shell group-commits concurrent appends, so connections are
    // dispatched in parallel. kMsgStats is answered by the server itself —
    // scrape it with `vault_admin stats 127.0.0.1:<port>`.
    const uint16_t port = static_cast<uint16_t>(
        argc >= 4 ? std::strtoul(argv[3], nullptr, 10) : 0);
    net::TcpServer::Options server_options;
    server_options.serialize_handler = false;
    if (const char* loops = std::getenv("SSE_REACTOR_LOOPS")) {
      server_options.reactor_loops =
          std::max(1ul, std::strtoul(loops, nullptr, 10));
    }
    ApplyAdmissionEnv(&server_options);
    ApplySloEnv(&server_options);
    auto tcp = net::TcpServer::Start(durable->get(), port, server_options);
    if (!tcp.ok()) {
      std::fprintf(stderr, "serve failed: %s\n",
                   tcp.status().ToString().c_str());
      return 1;
    }
    obs::StatsLogger stats_logger;  // periodic one-line metrics digest
    std::printf(
        "serving %s (scheme %s) on 127.0.0.1:%u (EOF on stdin stops)\n"
        "reactor: %zu epoll loop(s) + %zu dispatch worker(s) = %zu serving "
        "threads at any connection count\n",
        dir.c_str(), std::string(scheme->name).c_str(), (*tcp)->port(),
        server_options.reactor_loops, server_options.dispatch_workers,
        (*tcp)->serving_threads());
    std::fflush(stdout);
    while (std::fgetc(stdin) != EOF) {
    }
    (*tcp)->Stop();
  } else {
    return Usage();
  }
  return 0;
}
