// vault_admin — inspect a durable SSE server directory or a running server
// without any keys (everything here is the server's own view: ciphertext
// and framing only).
//
// Usage:
//   vault_admin <dir> status              # snapshot/WAL overview
//   vault_admin stats <host:port> [--spans]   # scrape a running server
//   vault_admin events <host:port> [N]    # last N journal events (default
//                                         # the whole ring) from a live
//                                         # server, oldest first
//
// A vault is checkpointed (its WAL bounded) by the program that serves
// it: `sse_cli <dir> checkpoint`.
//
// Example (after using sse_cli):
//   ./build/examples/vault_admin /tmp/vault status
//   ./build/examples/vault_admin stats 127.0.0.1:7700

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sse/net/tcp.h"
#include "sse/obs/stats_rpc.h"
#include "sse/repl/failover_channel.h"
#include "sse/storage/snapshot.h"
#include "sse/storage/wal.h"

namespace {

using namespace sse;

int Usage() {
  std::fprintf(stderr,
               "usage: vault_admin <dir> status\n"
               "       vault_admin stats <host:port> [--spans]\n"
               "       vault_admin events <host:port> [N]\n"
               "(checkpoint a vault with: sse_cli <dir> checkpoint)\n");
  return 2;
}

/// Dials host:port out of a "host:port" (or bare-port) target string.
Result<std::unique_ptr<net::TcpChannel>> DialTarget(const std::string& target) {
  std::string host = "127.0.0.1";
  std::string port_str = target;
  if (size_t colon = target.rfind(':'); colon != std::string::npos) {
    host = target.substr(0, colon);
    port_str = target.substr(colon + 1);
  }
  const long port = std::strtol(port_str.c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad port in " + target);
  }
  return net::TcpChannel::Connect(static_cast<uint16_t>(port), host);
}

/// Fetches the last `tail` journal events (0 = the server's whole ring)
/// over the stats RPC and prints them one per line, oldest first.
int RunEvents(const std::string& target, uint32_t tail) {
  auto channel = DialTarget(target);
  if (!channel.ok()) {
    std::fprintf(stderr, "connect %s failed: %s\n", target.c_str(),
                 channel.status().ToString().c_str());
    return 1;
  }
  obs::StatsRequest req;
  req.include_events = true;
  req.events_tail = tail;
  auto reply_msg = (*channel)->Call(req.ToMessage());
  if (!reply_msg.ok()) {
    std::fprintf(stderr, "stats RPC failed: %s\n",
                 reply_msg.status().ToString().c_str());
    return 1;
  }
  auto reply = obs::StatsReply::FromMessage(*reply_msg);
  if (!reply.ok()) {
    std::fprintf(stderr, "bad stats reply: %s\n",
                 reply.status().ToString().c_str());
    return 1;
  }
  if (reply->events_json.empty() || reply->events_json == "[]") {
    std::printf("(no events recorded; server may predate the journal)\n");
    return 0;
  }
  // The payload is our own fixed-schema JSON array; reflow it one event
  // per line so the narrative reads top to bottom.
  const std::string& json = reply->events_json;
  std::string line;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '[' && i == 0) continue;
    if (c == ']' && i + 1 == json.size()) break;
    if (c == ',' && i + 1 < json.size() && json[i + 1] == '{') {
      std::printf("%s\n", line.c_str());
      line.clear();
      continue;
    }
    line.push_back(c);
  }
  if (!line.empty()) std::printf("%s\n", line.c_str());
  return 0;
}

/// Scrapes a live server over the kMsgStats admin RPC and pretty-prints
/// the Prometheus payload: metric families grouped with their HELP text,
/// and the degraded-mode gauges called out up front so an operator sees
/// storage faults before scrolling.
int RunStats(const std::string& target, bool include_spans) {
  auto channel = DialTarget(target);
  if (!channel.ok()) {
    std::fprintf(stderr, "connect %s failed: %s\n", target.c_str(),
                 channel.status().ToString().c_str());
    return 1;
  }
  obs::StatsRequest req;
  req.include_spans = include_spans;
  auto reply_msg = (*channel)->Call(req.ToMessage());
  if (!reply_msg.ok()) {
    std::fprintf(stderr, "stats RPC failed: %s\n",
                 reply_msg.status().ToString().c_str());
    return 1;
  }
  auto reply = obs::StatsReply::FromMessage(*reply_msg);
  if (!reply.ok()) {
    std::fprintf(stderr, "bad stats reply: %s\n",
                 reply.status().ToString().c_str());
    return 1;
  }

  // Health summary first: any *_degraded gauge that reads nonzero.
  bool any_degraded = false;
  std::vector<std::string> lines;
  {
    size_t start = 0;
    const std::string& text = reply->prometheus_text;
    while (start <= text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
  }
  for (const std::string& line : lines) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name.find("_degraded") == std::string::npos) continue;
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    if (value != 0.0) {
      std::printf("!! DEGRADED: %s = %g\n", name.c_str(), value);
      any_degraded = true;
    }
  }
  std::printf("health:        %s\n",
              any_degraded ? "DEGRADED (see above)"
                           : "ok (no degraded gauges)");
  // Replication role summary (present only on nodes serving through
  // repl::ReplNode, which injects the sse_repl_* series into this scrape).
  double is_primary = 0;
  if (repl::FindMetricValue(reply->prometheus_text, "sse_repl_is_primary",
                            &is_primary)) {
    double epoch = 0, promotions = 0;
    repl::FindMetricValue(reply->prometheus_text, "sse_repl_epoch", &epoch);
    repl::FindMetricValue(reply->prometheus_text, "sse_repl_promotions_total",
                          &promotions);
    if (is_primary != 0.0) {
      std::printf("replication:   PRIMARY (epoch %g, %g promotion(s))\n",
                  epoch, promotions);
      double log_end = 0, acked = 0;
      if (repl::FindMetricValue(reply->prometheus_text,
                                "sse_repl_log_end_seq", &log_end) &&
          repl::FindMetricValue(reply->prometheus_text,
                                "sse_repl_max_acked_seq", &acked)) {
        std::printf("follower lag:  %g record(s) not yet acked by any "
                    "follower (log end %g, max acked %g)\n",
                    log_end - acked, log_end, acked);
      }
    } else {
      // A primary whose sender was fenced also reports 0: it refuses
      // mutations until an operator intervenes, exactly like a follower.
      double next_seq = 0, view_ok = 1;
      repl::FindMetricValue(reply->prometheus_text, "sse_repl_node_next_seq",
                            &next_seq);
      repl::FindMetricValue(reply->prometheus_text, "sse_repl_view_ok",
                            &view_ok);
      std::printf("replication:   follower/fenced (epoch %g, durable cursor "
                  "%g, read view %s, %g promotion(s))\n",
                  epoch, next_seq, view_ok != 0.0 ? "ok" : "FAIL-STOPPED",
                  promotions);
    }
  }
  // Reactor load at a glance: open connections on the scraped server
  // (sse_net_connections_active; includes this scrape's own connection).
  for (const std::string& line : lines) {
    if (line.rfind("sse_net_connections_active", 0) != 0) continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::printf("connections:   %g active\n",
                std::strtod(line.c_str() + space + 1, nullptr));
    break;
  }
  // SLO attainment per op class, from the sse_slo_* gauges the server's
  // tracker publishes (fast window attainment vs objective-relative burn).
  for (const char* cls : {"search", "mutation", "control"}) {
    const std::string base = std::string("sse_slo_") + cls;
    double attainment = 0;
    if (!repl::FindMetricValue(reply->prometheus_text, base + "_attainment",
                               &attainment)) {
      continue;  // server predates the SLO tracker
    }
    double burn_fast = 0, burn_slow = 0, total = 0;
    repl::FindMetricValue(reply->prometheus_text, base + "_burn_fast",
                          &burn_fast);
    repl::FindMetricValue(reply->prometheus_text, base + "_burn_slow",
                          &burn_slow);
    repl::FindMetricValue(reply->prometheus_text, base + "_window_total",
                          &total);
    if (total == 0) {
      std::printf("slo %-9s (no traffic in window)\n",
                  (std::string(cls) + ":").c_str());
      continue;
    }
    std::printf("slo %-9s attainment %.4f, burn %.2f fast / %.2f slow "
                "(%g op(s) in window)%s\n",
                (std::string(cls) + ":").c_str(), attainment, burn_fast,
                burn_slow, total,
                burn_fast > 1.0 ? "  <-- BURNING BUDGET" : "");
  }
  // Overload summary: what the admission layer has shed and dropped. The
  // breaker-open count appears only on nodes that run client-side failover
  // channels (e.g. a primary forwarding through one).
  {
    double shed = 0, shed_mutations = 0, queue_full = 0, deadline_dropped = 0;
    repl::FindMetricValue(reply->prometheus_text, "sse_admission_shed_total",
                          &shed);
    repl::FindMetricValue(reply->prometheus_text,
                          "sse_admission_shed_mutations_total",
                          &shed_mutations);
    repl::FindMetricValue(reply->prometheus_text,
                          "sse_admission_queue_full_total", &queue_full);
    repl::FindMetricValue(reply->prometheus_text,
                          "sse_admission_deadline_dropped_total",
                          &deadline_dropped);
    std::printf("overload:      %g shed (%g mutations, %g queue-full), "
                "%g expired at dequeue",
                shed, shed_mutations, queue_full, deadline_dropped);
    double breaker_opens = 0;
    if (repl::FindMetricValue(reply->prometheus_text,
                              "sse_client_breaker_opens_total",
                              &breaker_opens)) {
      std::printf(", %g breaker open(s)", breaker_opens);
    }
    std::printf("\n");
  }
  std::printf("\n");

  // Metric families, blank-line separated; HELP kept, TYPE dropped.
  bool first = true;
  for (const std::string& line : lines) {
    if (line.rfind("# TYPE", 0) == 0) continue;
    if (line.rfind("# HELP", 0) == 0) {
      if (!first) std::printf("\n");
      first = false;
    }
    if (!line.empty()) std::printf("%s\n", line.c_str());
  }
  if (include_spans) {
    std::printf("\n# recent spans (Chrome trace-event JSON; load in "
                "chrome://tracing or Perfetto)\n%s\n",
                reply->spans_json.c_str());
  }
  return 0;
}

void PrintFileSize(const char* label, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::printf("%-14s absent\n", label);
    return;
  }
  std::fseek(f, 0, SEEK_END);
  std::printf("%-14s %ld bytes\n", label, std::ftell(f));
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "stats") == 0) {
    const bool spans = argc >= 4 && std::strcmp(argv[3], "--spans") == 0;
    return RunStats(argv[2], spans);
  }
  if (argc >= 3 && std::strcmp(argv[1], "events") == 0) {
    const long tail = argc >= 4 ? std::strtol(argv[3], nullptr, 10) : 0;
    return RunEvents(argv[2], tail > 0 ? static_cast<uint32_t>(tail) : 0);
  }
  if (argc < 3) return Usage();
  const std::string dir = argv[1];
  const std::string command = argv[2];

  if (command == "status") {
    storage::SnapshotSet snapshots(dir);
    auto gens = snapshots.List();
    if (!gens.ok()) {
      std::printf("%-14s %s\n", "snapshots:",
                  gens.status().ToString().c_str());
    } else if (gens->empty()) {
      std::printf("%-14s absent\n", "snapshots:");
    } else {
      for (uint64_t gen : *gens) {
        auto verify = storage::Snapshot::Read(snapshots.PathFor(gen));
        char label[32];
        std::snprintf(label, sizeof(label), "snapshot g%llu:",
                      (unsigned long long)gen);
        PrintFileSize(label, snapshots.PathFor(gen));
        if (!verify.ok()) {
          std::printf("%-14s   ^ %s\n", "",
                      verify.status().ToString().c_str());
        }
      }
    }
    uint64_t bytes = 0;
    storage::WalReplayReport report;
    Status replay = storage::WriteAheadLog::Replay(
        dir, storage::WalOptions{}, /*min_seq=*/0,
        [&](uint64_t, BytesView record) {
          bytes += record.size();
          return Status::OK();
        },
        &report);
    if (replay.ok()) {
      std::printf("%-14s %llu record(s) in %llu segment(s), "
                  "%llu payload bytes, seqs [%llu, %llu)%s\n",
                  "wal:", (unsigned long long)report.records,
                  (unsigned long long)report.segments,
                  (unsigned long long)bytes,
                  (unsigned long long)report.lowest_seq,
                  (unsigned long long)report.next_seq,
                  report.torn_bytes > 0 ? " (torn tail dropped)" : "");
    } else {
      std::printf("%-14s CORRUPT: %s\n", "wal:", replay.ToString().c_str());
    }
    // Replication role marker, when this directory belongs to a ReplNode.
    const std::string marker = dir + "/repl.role";
    std::FILE* marker_file = std::fopen(marker.c_str(), "rb");
    if (marker_file != nullptr) {
      char buf[256] = {0};
      const size_t n = std::fread(buf, 1, sizeof(buf) - 1, marker_file);
      std::fclose(marker_file);
      std::string text(buf, n);
      for (char& c : text) {
        if (c == '\n') c = ' ';
      }
      std::printf("%-14s %s\n", "repl role:", text.c_str());
    }
    return 0;
  }

  return Usage();
}
