#include "sse/core/reply_cache.h"

#include <utility>

#include "sse/util/serde.h"

namespace sse::core {

namespace {
/// Snapshot section magic, "RPLC".
constexpr uint32_t kReplyCacheMagic = 0x52504c43;
}  // namespace

ReplyCache::Outcome ReplyCache::Begin(uint64_t client, uint64_t seq,
                                      net::Message* cached_reply) {
  std::lock_guard<std::mutex> lock(mutex_);
  ClientState& state = clients_[client];
  state.last_used = ++tick_;

  auto it = state.replies.find(seq);
  if (it != state.replies.end()) {
    if (cached_reply != nullptr) {
      Result<net::Message> decoded = net::Message::Decode(it->second);
      // The cache only ever stores bytes produced by Message::Encode, so a
      // decode failure would mean in-memory corruption; treat the entry as
      // absent and let the handler re-answer a (non-mutating) request or
      // refuse it below.
      if (decoded.ok()) {
        *cached_reply = std::move(decoded).value();
        hits_ += 1;
        EvictClientsLocked();
        return Outcome::kCached;
      }
      state.replies.erase(it);
      total_entries_ -= 1;
    } else {
      hits_ += 1;
      EvictClientsLocked();
      return Outcome::kCached;
    }
  }

  if (state.in_flight.count(seq) != 0) {
    refusals_ += 1;
    EvictClientsLocked();
    return Outcome::kInFlight;
  }
  if (seq < state.low_water) {
    // The reply for this seq has been evicted; executing again could be a
    // second application of a non-idempotent update. Refuse.
    refusals_ += 1;
    EvictClientsLocked();
    return Outcome::kTooOld;
  }

  state.in_flight.insert(seq);
  if (seq >= state.max_seen) state.max_seen = seq;
  EvictClientsLocked();
  return Outcome::kNew;
}

void ReplyCache::Commit(uint64_t client, uint64_t seq,
                        const net::Message& reply) {
  std::lock_guard<std::mutex> lock(mutex_);
  ClientState& state = clients_[client];
  state.last_used = ++tick_;
  state.in_flight.erase(seq);
  auto [entry, inserted] = state.replies.insert_or_assign(seq, reply.Encode());
  (void)entry;
  if (inserted) total_entries_ += 1;
  if (seq >= state.max_seen) state.max_seen = seq;
  while (state.replies.size() > options_.per_client_entries) {
    DropEntryLocked(&state, state.replies.begin());
  }
  EvictClientsLocked();
  EvictEntriesLocked();
}

void ReplyCache::Abort(uint64_t client, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  it->second.in_flight.erase(seq);
}

Status ReplyCache::RefusalStatus(Outcome outcome) {
  switch (outcome) {
    case Outcome::kInFlight:
      return Status::Unavailable(
          "duplicate call still executing; retry shortly");
    case Outcome::kTooOld:
      return Status::FailedPrecondition(
          "retry of a call older than the dedup window; refusing to risk "
          "re-execution");
    default:
      return Status::OK();
  }
}

void ReplyCache::EvictClientsLocked() {
  while (clients_.size() > options_.max_clients) {
    auto victim = clients_.end();
    for (auto it = clients_.begin(); it != clients_.end(); ++it) {
      // Never evict a client with a call mid-execution.
      if (!it->second.in_flight.empty()) continue;
      if (victim == clients_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == clients_.end()) return;  // everything in flight
    const size_t dropped = victim->second.replies.size();
    total_entries_ -= dropped;
    evictions_ += dropped;
    clients_.erase(victim);
  }
}

void ReplyCache::DropEntryLocked(ClientState* state,
                                 std::map<uint64_t, Bytes>::iterator entry) {
  const uint64_t evicted = entry->first;
  state->replies.erase(entry);
  if (evicted >= state->low_water) state->low_water = evicted + 1;
  total_entries_ -= 1;
  evictions_ += 1;
}

void ReplyCache::EvictEntriesLocked() {
  if (options_.max_total_entries == 0) return;
  while (total_entries_ > options_.max_total_entries) {
    // Global LRU at client granularity: the least-recently-active client
    // that still retains replies gives up its oldest entry first (the one
    // a well-behaved synchronous client is least likely to retry).
    auto victim = clients_.end();
    for (auto it = clients_.begin(); it != clients_.end(); ++it) {
      if (it->second.replies.empty()) continue;
      if (victim == clients_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == clients_.end()) return;
    DropEntryLocked(&victim->second, victim->second.replies.begin());
  }
}

Bytes ReplyCache::Serialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BufferWriter w;
  w.PutU32(kReplyCacheMagic);
  w.PutVarint(clients_.size());
  for (const auto& [client, state] : clients_) {
    w.PutU64(client);
    w.PutU64(state.max_seen);
    w.PutU64(state.low_water);
    w.PutVarint(state.replies.size());
    for (const auto& [seq, bytes] : state.replies) {
      w.PutU64(seq);
      w.PutBytes(bytes);
    }
  }
  return w.TakeData();
}

Status ReplyCache::Restore(BytesView data) {
  BufferReader r(data);
  uint32_t magic = 0;
  SSE_ASSIGN_OR_RETURN(magic, r.GetU32());
  if (magic != kReplyCacheMagic) {
    return Status::Corruption("reply cache snapshot: bad magic");
  }
  uint64_t n_clients = 0;
  SSE_ASSIGN_OR_RETURN(n_clients, r.GetVarint());
  std::unordered_map<uint64_t, ClientState> restored;
  for (uint64_t i = 0; i < n_clients; ++i) {
    uint64_t client = 0;
    SSE_ASSIGN_OR_RETURN(client, r.GetU64());
    ClientState state;
    SSE_ASSIGN_OR_RETURN(state.max_seen, r.GetU64());
    SSE_ASSIGN_OR_RETURN(state.low_water, r.GetU64());
    uint64_t n_replies = 0;
    SSE_ASSIGN_OR_RETURN(n_replies, r.GetVarint());
    for (uint64_t j = 0; j < n_replies; ++j) {
      uint64_t seq = 0;
      SSE_ASSIGN_OR_RETURN(seq, r.GetU64());
      Bytes bytes;
      SSE_ASSIGN_OR_RETURN(bytes, r.GetBytes());
      state.replies[seq] = std::move(bytes);
    }
    restored[client] = std::move(state);
  }
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  std::lock_guard<std::mutex> lock(mutex_);
  clients_ = std::move(restored);
  // Restored clients become equally "old"; later activity re-ranks them.
  tick_ = 0;
  total_entries_ = 0;
  for (auto& [client, state] : clients_) {
    state.last_used = ++tick_;
    total_entries_ += state.replies.size();
  }
  EvictEntriesLocked();
  return Status::OK();
}

void ReplyCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  clients_.clear();
  tick_ = 0;
  total_entries_ = 0;
}

size_t ReplyCache::client_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return clients_.size();
}

size_t ReplyCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_entries_;
}

uint64_t ReplyCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

uint64_t ReplyCache::refusals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return refusals_;
}

uint64_t ReplyCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

void ReplyCache::RegisterMetrics(
    const std::string& prefix,
    std::vector<obs::MetricsRegistry::Registration>& into) const {
  auto& registry = obs::MetricsRegistry::Global();
  into.push_back(registry.RegisterGauge(
      prefix + "_entries",
      [this] { return static_cast<double>(entry_count()); },
      "Replies retained in the at-most-once dedup cache"));
  into.push_back(registry.RegisterGauge(
      prefix + "_evictions_total",
      [this] { return static_cast<double>(evictions()); },
      "Reply-cache entries dropped to enforce size bounds"));
}

}  // namespace sse::core
