#include "sse/repl/failover_channel.h"

#include <algorithm>
#include <cstdlib>

#include "sse/net/admission.h"
#include "sse/obs/events.h"
#include "sse/obs/metrics_registry.h"
#include "sse/obs/stats_rpc.h"

namespace sse::repl {

namespace {

obs::MetricsRegistry::Counter* FailoverCounter() {
  static obs::MetricsRegistry::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(
          "sse_client_failovers_total",
          "times the client demoted its cached primary and re-probed");
  return counter;
}

obs::MetricsRegistry::Counter* BreakerOpenCounter() {
  static obs::MetricsRegistry::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(
          "sse_client_breaker_opens_total",
          "times a client endpoint circuit breaker opened");
  return counter;
}

}  // namespace

bool FindMetricValue(const std::string& prometheus_text,
                     const std::string& name, double* value) {
  size_t pos = 0;
  while ((pos = prometheus_text.find(name, pos)) != std::string::npos) {
    const size_t after = pos + name.size();
    const bool line_start = pos == 0 || prometheus_text[pos - 1] == '\n';
    if (line_start && after < prometheus_text.size() &&
        (prometheus_text[after] == ' ' || prometheus_text[after] == '\t')) {
      *value = std::strtod(prometheus_text.c_str() + after + 1, nullptr);
      return true;
    }
    pos = after;
  }
  return false;
}

FailoverChannel::FailoverChannel(std::vector<ReplSender::Endpoint> endpoints)
    : FailoverChannel(std::move(endpoints), Options()) {}

FailoverChannel::FailoverChannel(std::vector<ReplSender::Endpoint> endpoints,
                                 Options options)
    : options_(std::move(options)) {
  nodes_.reserve(endpoints.size());
  for (ReplSender::Endpoint& endpoint : endpoints) {
    Node node;
    node.endpoint = std::move(endpoint);
    nodes_.push_back(std::move(node));
  }
}

FailoverChannel::~FailoverChannel() = default;

net::TcpChannel* FailoverChannel::Ensure(Node* node) {
  if (node->channel != nullptr) return node->channel.get();
  if (node->backoff_ms != 0 &&
      std::chrono::steady_clock::now() < node->next_dial) {
    return nullptr;
  }
  Result<std::unique_ptr<net::TcpChannel>> connected = net::TcpChannel::Connect(
      node->endpoint.port, node->endpoint.host, options_.channel);
  if (!connected.ok()) {
    MarkDialFailure(node);
    return nullptr;
  }
  node->channel = std::move(connected).value();
  node->backoff_ms = 0;
  if (io_deadline_ms_ > 0.0) node->channel->SetIoDeadlineMs(io_deadline_ms_);
  return node->channel.get();
}

void FailoverChannel::SetIoDeadlineMs(double ms) {
  io_deadline_ms_ = ms;
  for (Node& node : nodes_) {
    if (node.channel != nullptr) node.channel->SetIoDeadlineMs(ms);
  }
}

void FailoverChannel::MarkDialFailure(Node* node) {
  node->backoff_ms = node->backoff_ms == 0
                         ? options_.backoff_initial_ms
                         : std::min(node->backoff_ms * 2, options_.backoff_max_ms);
  node->next_dial = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(node->backoff_ms);
}

int FailoverChannel::FindPrimary() {
  const net::Message probe = obs::StatsRequest{}.ToMessage();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    net::TcpChannel* channel = Ensure(&nodes_[i]);
    if (channel == nullptr) continue;
    Result<net::Message> reply = channel->Call(probe);
    if (!reply.ok()) {
      nodes_[i].channel.reset();
      MarkDialFailure(&nodes_[i]);
      continue;
    }
    Result<obs::StatsReply> stats = obs::StatsReply::FromMessage(*reply);
    if (!stats.ok()) continue;
    double is_primary = 0;
    if (FindMetricValue(stats->prometheus_text, "sse_repl_is_primary",
                        &is_primary) &&
        is_primary != 0) {
      primary_ = static_cast<int>(i);
      return primary_;
    }
  }
  return -1;
}

void FailoverChannel::DemotePrimary() {
  if (primary_ < 0) return;
  const Node& old = nodes_[static_cast<size_t>(primary_)];
  obs::EventJournal::Global().Emit(
      obs::EventKind::kFailover,
      "client demoted cached primary " + old.endpoint.host + ":" +
          std::to_string(old.endpoint.port) + "; re-probing the cluster");
  primary_ = -1;
  ++failovers_;
  FailoverCounter()->Add();
}

bool FailoverChannel::BreakerAllows(Node* node) {
  if (options_.breaker_failure_threshold <= 0) return true;
  switch (node->breaker) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      // Channels are single-caller, so at most one half-open probe can be
      // in flight; RecordOutcome settles the state either way.
      return true;
    case BreakerState::kOpen:
      if (std::chrono::steady_clock::now() < node->breaker_until) {
        return false;
      }
      node->breaker = BreakerState::kHalfOpen;
      return true;
  }
  return true;
}

void FailoverChannel::OpenBreaker(Node* node, uint64_t open_ms) {
  node->breaker = BreakerState::kOpen;
  node->breaker_until = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(open_ms);
  ++breaker_opens_;
  BreakerOpenCounter()->Add();
  obs::EventJournal::Global().Emit(
      obs::EventKind::kBreakerOpen,
      "breaker open for " + node->endpoint.host + ":" +
          std::to_string(node->endpoint.port) + " (" +
          std::to_string(open_ms) + " ms)");
}

void FailoverChannel::RecordOutcome(Node* node, const Status& status) {
  if (options_.breaker_failure_threshold <= 0) return;
  if (status.ok()) {
    if (node->breaker == BreakerState::kHalfOpen) {
      obs::EventJournal::Global().Emit(
          obs::EventKind::kBreakerClose,
          "breaker closed for " + node->endpoint.host + ":" +
              std::to_string(node->endpoint.port) +
              " after a successful half-open probe");
    }
    node->breaker = BreakerState::kClosed;
    node->consecutive_failures = 0;
    return;
  }
  if (status.code() == StatusCode::kResourceExhausted) {
    // The server shed us: it is alive but wants the traffic paced. Open
    // immediately for exactly as long as it asked (its retry-after hint).
    uint32_t hint_ms = 0;
    const uint64_t open_ms = net::RetryAfterHintMs(status, &hint_ms)
                                 ? hint_ms
                                 : options_.breaker_open_ms;
    OpenBreaker(node, std::max<uint64_t>(1, open_ms));
    return;
  }
  if (!status.IsRetryable()) return;  // application answer, not node health
  node->consecutive_failures += 1;
  if (node->breaker == BreakerState::kHalfOpen ||
      node->consecutive_failures >= options_.breaker_failure_threshold) {
    OpenBreaker(node, options_.breaker_open_ms);
    node->consecutive_failures = 0;
  }
}

FailoverChannel::Node* FailoverChannel::Route(const net::Message& request,
                                              Status* why) {
  const bool mutating =
      options_.is_mutating ? options_.is_mutating(request) : true;
  if (!mutating && options_.read_from_followers && !nodes_.empty()) {
    // Stale-tolerant read: any reachable endpoint will do; spread them.
    for (size_t step = 0; step < nodes_.size(); ++step) {
      Node* node = &nodes_[(read_rr_ + step) % nodes_.size()];
      if (!BreakerAllows(node)) continue;
      if (Ensure(node) != nullptr) {
        read_rr_ = (read_rr_ + step + 1) % nodes_.size();
        return node;
      }
    }
    *why = Status::Unavailable("no endpoint reachable for read");
    return nullptr;
  }
  int index = primary_;
  if (index < 0) index = FindPrimary();
  if (index < 0) {
    *why = Status::Unavailable("no primary found among endpoints");
    return nullptr;
  }
  Node* node = &nodes_[index];
  if (!BreakerAllows(node)) {
    // An open breaker is NOT a failover: the primary is alive and shedding.
    // Refuse locally with the time left so the retry layer sleeps it off.
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        node->breaker_until - std::chrono::steady_clock::now());
    *why = net::WithRetryAfter(
        Status::ResourceExhausted("endpoint circuit breaker open"),
        static_cast<uint32_t>(std::max<int64_t>(1, left.count())));
    return nullptr;
  }
  if (Ensure(node) == nullptr) {
    DemotePrimary();
    *why = Status::Unavailable("cached primary unreachable");
    return nullptr;
  }
  return node;
}

Result<net::Message> FailoverChannel::Call(const net::Message& request) {
  return Await(Submit(request));
}

net::Channel::CallId FailoverChannel::Submit(const net::Message& request) {
  const CallId id = next_call_id_++;
  Status why = Status::OK();
  Node* node = Route(request, &why);
  if (node == nullptr) {
    // Routing failed now; Await() hands the failure back.
    buffered_.emplace(id, Result<net::Message>(why));
    return id;
  }
  const size_t index = static_cast<size_t>(node - nodes_.data());
  pending_.emplace(id, std::make_pair(index, node->channel->Submit(request)));
  return id;
}

Result<net::Message> FailoverChannel::Await(CallId id) {
  auto buffered = buffered_.find(id);
  if (buffered != buffered_.end()) {
    Result<net::Message> out = std::move(buffered->second);
    buffered_.erase(buffered);
    return out;
  }
  auto pending = pending_.find(id);
  if (pending == pending_.end()) {
    return Status::InvalidArgument("unknown call id");
  }
  const auto [index, inner_id] = pending->second;
  pending_.erase(pending);
  Node* node = &nodes_[index];
  if (node->channel == nullptr) {
    return Status::Unavailable("endpoint channel dropped while pending");
  }
  Result<net::Message> reply = node->channel->Await(inner_id);
  RecordOutcome(node, reply.ok() ? Status::OK() : reply.status());
  // A dead transport or an explicit "not primary" both mean the role
  // cache is stale; anything non-retryable is the application's answer.
  // A shed (RESOURCE_EXHAUSTED) is neither: the primary is healthy,
  // demoting it would only add probe traffic to an overloaded node — the
  // breaker paces us instead.
  if (!reply.ok() && static_cast<int>(index) == primary_ &&
      reply.status().IsRetryable()) {
    DemotePrimary();
  }
  return reply;
}

size_t FailoverChannel::pending_calls() const {
  return pending_.size() + buffered_.size();
}

void FailoverChannel::Reset() {
  for (Node& node : nodes_) {
    if (node.channel != nullptr) node.channel->Reset();
    // Let the next dial try immediately: a Reset means the caller is
    // about to retry and stale backoff gates would starve it.
    node.backoff_ms = 0;
  }
  if (primary_ >= 0) DemotePrimary();
}

const net::ChannelStats& FailoverChannel::stats() const {
  merged_stats_.Clear();
  for (const Node& node : nodes_) {
    if (node.channel == nullptr) continue;
    const net::ChannelStats& s = node.channel->stats();
    merged_stats_.rounds += s.rounds;
    merged_stats_.bytes_sent += s.bytes_sent;
    merged_stats_.bytes_received += s.bytes_received;
    merged_stats_.frames_sent += s.frames_sent;
    merged_stats_.frames_received += s.frames_received;
    merged_stats_.injected_faults += s.injected_faults;
    for (const auto& [type, count] : s.calls_by_type) {
      merged_stats_.calls_by_type[type] += count;
    }
  }
  return merged_stats_;
}

void FailoverChannel::ResetStats() {
  for (Node& node : nodes_) {
    if (node.channel != nullptr) node.channel->ResetStats();
  }
}

std::vector<FailoverChannel::BreakerState> FailoverChannel::breaker_states()
    const {
  std::vector<BreakerState> out;
  out.reserve(nodes_.size());
  for (const Node& node : nodes_) out.push_back(node.breaker);
  return out;
}

std::vector<std::string> FailoverChannel::endpoints() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    out.push_back(node.endpoint.host + ":" +
                  std::to_string(node.endpoint.port));
  }
  return out;
}

}  // namespace sse::repl
