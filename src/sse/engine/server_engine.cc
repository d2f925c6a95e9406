#include "sse/engine/server_engine.h"

#include <chrono>
#include <utility>

#include "sse/net/batch.h"
#include "sse/net/deadline.h"
#include "sse/net/wire.h"
#include "sse/obs/trace.h"
#include "sse/util/serde.h"

namespace sse::engine {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Process-wide engine counters, looked up once. Every engine in the
/// process adds into the same series (one relaxed fetch_add per bump); the
/// shard counters are totals over all shards.
struct EngineCounters {
  obs::MetricsRegistry::Counter* requests;
  obs::MetricsRegistry::Counter* scatters;
  obs::MetricsRegistry::Counter* broadcasts;
  obs::MetricsRegistry::Counter* batches;
  obs::MetricsRegistry::Counter* batch_ops;
  obs::MetricsRegistry::Counter* doc_puts;
  obs::MetricsRegistry::Counter* doc_fetches;
  obs::MetricsRegistry::Counter* shard_reads;
  obs::MetricsRegistry::Counter* shard_writes;
  obs::MetricsRegistry::Counter* shard_errors;
  obs::MetricsRegistry::Counter* dedup_hits;

  static EngineCounters& Get() {
    static EngineCounters c = [] {
      auto& reg = obs::MetricsRegistry::Global();
      EngineCounters e;
      e.requests = reg.GetCounter("sse_engine_requests_total",
                                  "Requests handled by engines");
      e.scatters = reg.GetCounter("sse_engine_scatters_total",
                                  "Requests split across more than one shard "
                                  "but not all of them");
      e.broadcasts = reg.GetCounter("sse_engine_broadcasts_total",
                                    "Requests sent to every shard");
      e.batches = reg.GetCounter("sse_engine_batches_total",
                                 "kMsgBatch envelopes unpacked");
      e.batch_ops = reg.GetCounter("sse_engine_batch_ops_total",
                                   "Sub-ops carried inside batch envelopes");
      e.doc_puts = reg.GetCounter("sse_engine_doc_puts_total",
                                  "Encrypted data items stored");
      e.doc_fetches = reg.GetCounter("sse_engine_doc_fetches_total",
                                     "Encrypted data items looked up");
      e.shard_reads = reg.GetCounter(
          "sse_engine_shard_reads_total",
          "Shard sub-requests handled under a shared lock");
      e.shard_writes = reg.GetCounter(
          "sse_engine_shard_writes_total",
          "Shard sub-requests handled under an exclusive lock");
      e.shard_errors = reg.GetCounter("sse_engine_shard_errors_total",
                                      "Shard sub-requests that failed");
      e.dedup_hits = reg.GetCounter(
          "sse_engine_dedup_hits_total",
          "Retried calls served from the reply cache");
      return e;
    }();
    return c;
  }
};

}  // namespace

ServerEngine::ServerEngine(std::unique_ptr<SchemeAdapter> adapter)
    : adapter_(std::move(adapter)) {}

Result<std::unique_ptr<ServerEngine>> ServerEngine::Create(
    std::unique_ptr<SchemeAdapter> adapter, const EngineOptions& options) {
  if (adapter == nullptr) {
    return Status::InvalidArgument("engine adapter must be non-null");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("engine needs at least one shard");
  }
  auto engine =
      std::unique_ptr<ServerEngine>(new ServerEngine(std::move(adapter)));
  if (options.enable_reply_cache) {
    engine->reply_cache_ =
        std::make_unique<core::ReplyCache>(options.reply_cache);
  }
  engine->slots_.reserve(options.num_shards);
  for (size_t i = 0; i < options.num_shards; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->shard = engine->adapter_->CreateShard();
    engine->slots_.push_back(std::move(slot));
  }

  // Expose this engine in the process-wide registry. Several engines in
  // one process (common in tests) register the same names; the registry
  // merges them at scrape time. The counters are created here so a scrape
  // lists them before the first request.
  EngineCounters::Get();
  auto& registry = obs::MetricsRegistry::Global();
  ServerEngine* raw = engine.get();
  engine->registrations_.push_back(registry.RegisterHistogram(
      "sse_engine_handle_seconds",
      [raw] { return raw->handle_latency_.Snap(); },
      "Whole-request engine handling latency"));
  engine->registrations_.push_back(registry.RegisterHistogram(
      "sse_engine_lock_wait_seconds", [raw] { return raw->lock_wait_.Snap(); },
      "Per-sub-request shard lock acquisition wait"));
  engine->registrations_.push_back(registry.RegisterGauge(
      "sse_engine_degraded", [raw] { return raw->degraded() ? 1.0 : 0.0; },
      "1 once the storage layer fail-stopped this engine to read-only"));
  if (raw->reply_cache_ != nullptr) {
    raw->reply_cache_->RegisterMetrics("sse_engine_reply_cache",
                                       engine->registrations_);
  }
  return engine;
}

Result<net::Message> ServerEngine::Handle(const net::Message& request) {
  EngineCounters::Get().requests->Add();
  // Parent to the thread-local context (in-process call chains) or to the
  // message's wire trace header (TCP dispatch threads).
  obs::ScopedSpan handle_span("engine.handle", obs::ParentFor(request));
  handle_span.Annotate("msg_type", request.type);
  const Clock::time_point t0 = Clock::now();
  Result<net::Message> reply = request.type == net::kMsgBatch
                                   ? HandleBatch(request)
                                   : HandleDeduped(request);
  handle_latency_.Record(NanosSince(t0));
  return reply;
}

Result<net::Message> ServerEngine::HandleBatch(const net::Message& request) {
  std::vector<net::Message> subs;
  SSE_ASSIGN_OR_RETURN(subs, net::UnpackBatch(request));
  EngineCounters::Get().batches->Add();
  EngineCounters::Get().batch_ops->Add(subs.size());

  // Sub-ops run in order; each travels the normal single-op path (dedup,
  // routing, shard locks) and so cannot be told apart from a client that
  // sent it alone. The caller's deadline is checked at every sub-op
  // boundary: once it passes, finished sub-ops keep their real replies
  // and the rest get per-op DEADLINE_EXCEEDED entries (retryable, and
  // their stable sub-op seqs make the re-send dedup cleanly).
  const net::Deadline deadline = net::CurrentDeadline();
  std::vector<net::Message> outs;
  outs.reserve(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    if (subs[i].type == net::kMsgBatch) {
      outs.push_back(net::MakeErrorMessage(
          Status::InvalidArgument("batch envelopes cannot nest")));
      continue;
    }
    if (deadline.Expired()) {
      outs.push_back(
          net::MakeErrorMessage(net::DeadlineExceededStatus("mid-batch")));
      continue;
    }
    obs::ScopedSpan op_span("engine.batch_op");
    op_span.Annotate("batch_index", i);
    op_span.Annotate("seq", subs[i].seq);
    Result<net::Message> r = HandleDeduped(subs[i]);
    outs.push_back(r.ok() ? std::move(r).value()
                          : net::MakeErrorMessage(r.status()));
  }
  return net::PackBatchReply(request, std::move(outs));
}

Result<net::Message> ServerEngine::HandleDeduped(const net::Message& request) {
  if (degraded() && IsMutating(request.type) &&
      request.type != net::kMsgBatch) {
    // Read-only after a storage fault: the DurableServer in front of us
    // already rejects mutations, but a bare engine (or a bug above) must
    // not mutate state that can no longer be journaled. Batch envelopes
    // pass through — their sub-ops are classified individually here.
    return Status::Unavailable("engine degraded after storage fault");
  }
  if (reply_cache_ == nullptr || !request.has_session) {
    return HandleInternal(request);
  }
  if (!IsMutating(request.type)) {
    // Read-only calls are idempotent: re-executing a retry is harmless and
    // cheaper than recording multi-KB search results in the cache. Echo
    // the stamp so the client can still match the reply to its call.
    Result<net::Message> reply = HandleInternal(request);
    if (reply.ok()) reply->EchoSession(request);
    return reply;
  }
  net::Message cached;
  const core::ReplyCache::Outcome outcome =
      reply_cache_->Begin(request.client_id, request.seq, &cached);
  switch (outcome) {
    case core::ReplyCache::Outcome::kCached: {
      // A retry of an answered call: serve the recorded reply without
      // touching the shards (re-applying a Scheme 1 XOR update would
      // corrupt postings).
      EngineCounters::Get().dedup_hits->Add();
      cached.EchoSession(request);
      return cached;
    }
    case core::ReplyCache::Outcome::kInFlight:
    case core::ReplyCache::Outcome::kTooOld:
      return core::ReplyCache::RefusalStatus(outcome);
    case core::ReplyCache::Outcome::kNew:
      break;
  }
  Result<net::Message> reply = HandleInternal(request);
  if (reply.ok()) {
    reply->EchoSession(request);
    reply_cache_->Commit(request.client_id, request.seq, *reply);
  } else {
    // The handler rejected the request without changing state; a retry may
    // re-execute it.
    reply_cache_->Abort(request.client_id, request.seq);
  }
  return reply;
}

Result<net::Message> ServerEngine::HandleInternal(const net::Message& request) {
  RequestPlan plan;
  SSE_ASSIGN_OR_RETURN(plan, adapter_->Route(request, slots_.size()));
  if (plan.subs.size() > 1) {
    if (plan.subs.size() == slots_.size()) {
      EngineCounters::Get().broadcasts->Add();
    } else {
      EngineCounters::Get().scatters->Add();
    }
  }

  // Every sub-request runs, even after one fails; the first failure is
  // the request's.
  std::vector<net::Message> replies;
  replies.reserve(plan.subs.size());
  Status first_error = Status::OK();
  for (const SubRequest& sub : plan.subs) {
    Result<net::Message> reply = DispatchSub(sub);
    if (reply.ok()) {
      replies.push_back(std::move(reply).value());
    } else if (first_error.ok()) {
      first_error = reply.status();
    }
  }
  SSE_RETURN_IF_ERROR(first_error);

  if (!plan.documents.empty()) {
    EngineCounters::Get().doc_puts->Add(plan.documents.size());
    std::unique_lock<std::shared_mutex> lock(docs_mutex_);
    docs_.Put(std::move(plan.documents));
  }

  DocumentFetcher fetcher = [this](const std::vector<uint64_t>& ids) {
    std::shared_lock<std::shared_mutex> lock(docs_mutex_);
    EngineCounters::Get().doc_fetches->Add(ids.size());
    return docs_.Fetch(ids);
  };
  return adapter_->Merge(request, plan, std::move(replies), fetcher);
}

Result<net::Message> ServerEngine::DispatchSub(const SubRequest& sub) {
  Slot& slot = *slots_[sub.shard];
  EngineCounters& counters = EngineCounters::Get();
  const LockMode mode = adapter_->LockModeFor(sub.message.type);
  obs::ScopedSpan shard_span("engine.shard");
  shard_span.Annotate("shard", sub.shard);
  shard_span.Annotate("exclusive", mode == LockMode::kExclusive ? 1 : 0);
  Result<net::Message> reply = [&]() -> Result<net::Message> {
    const Clock::time_point t0 = Clock::now();
    if (mode == LockMode::kExclusive) {
      std::unique_lock<std::shared_mutex> lock(slot.mutex);
      lock_wait_.Record(NanosSince(t0));
      counters.shard_writes->Add();
      return slot.shard->Handle(sub.message);
    }
    std::shared_lock<std::shared_mutex> lock(slot.mutex);
    lock_wait_.Record(NanosSince(t0));
    counters.shard_reads->Add();
    return slot.shard->Handle(sub.message);
  }();
  if (!reply.ok()) counters.shard_errors->Add();
  return reply;
}

void ServerEngine::OnStorageDegraded(const Status& cause) {
  (void)cause;
  degraded_.store(true, std::memory_order_release);
}

Result<Bytes> ServerEngine::SerializeState() const {
  BufferWriter w;
  w.PutU32(kEngineSnapshotMagic);
  w.PutVarint(slots_.size());
  {
    std::shared_lock<std::shared_mutex> lock(docs_mutex_);
    net::wire::Put(w, docs_);
  }
  for (const std::unique_ptr<Slot>& slot : slots_) {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    Bytes state;
    SSE_ASSIGN_OR_RETURN(state, slot->shard->SerializeState());
    w.PutBytes(state);
  }
  if (reply_cache_ != nullptr) {
    // Optional trailing section (absent in pre-dedup snapshots): the reply
    // cache, so at-most-once state survives checkpoint/restore.
    w.PutBytes(reply_cache_->Serialize());
  }
  return w.TakeData();
}

Status ServerEngine::RestoreState(BytesView data) {
  BufferReader r(data);
  uint32_t magic = 0;
  SSE_ASSIGN_OR_RETURN(magic, r.GetU32());
  if (magic != kEngineSnapshotMagic) {
    return Status::Corruption(
        "not an engine snapshot (single-server state cannot be restored "
        "into a sharded engine)");
  }
  uint64_t shard_count = 0;
  SSE_ASSIGN_OR_RETURN(shard_count, r.GetVarint());
  if (shard_count != slots_.size()) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(shard_count) +
        " shards but the engine is configured with " +
        std::to_string(slots_.size()) +
        "; restore requires an identical shard count");
  }

  // Parse and restore into fresh state before touching live state, so a
  // corrupt snapshot leaves the engine unchanged.
  core::DocumentStore docs;
  SSE_RETURN_IF_ERROR(net::wire::Get(r, docs));
  std::vector<std::unique_ptr<SchemeShard>> shards;
  shards.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    Bytes state;
    SSE_ASSIGN_OR_RETURN(state, r.GetBytes());
    std::unique_ptr<SchemeShard> shard = adapter_->CreateShard();
    SSE_RETURN_IF_ERROR(shard->RestoreState(state));
    shards.push_back(std::move(shard));
  }
  // Trailing reply-cache section; absent in snapshots taken before dedup
  // existed, in which case the cache starts empty.
  Bytes cache_bytes;
  if (!r.AtEnd()) {
    SSE_ASSIGN_OR_RETURN(cache_bytes, r.GetBytes());
  }
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  if (reply_cache_ != nullptr) {
    if (cache_bytes.empty()) {
      reply_cache_->Clear();
    } else {
      SSE_RETURN_IF_ERROR(reply_cache_->Restore(cache_bytes));
    }
  }

  // Swap in under every lock, shards in index order.
  std::unique_lock<std::shared_mutex> docs_lock(docs_mutex_);
  std::vector<std::unique_lock<std::shared_mutex>> shard_locks;
  shard_locks.reserve(slots_.size());
  for (const std::unique_ptr<Slot>& slot : slots_) {
    shard_locks.emplace_back(slot->mutex);
  }
  docs_ = std::move(docs);
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i]->shard = std::move(shards[i]);
  }
  adapter_->OnStateRestored();
  return Status::OK();
}

size_t ServerEngine::unique_keywords() const {
  size_t total = 0;
  for (const std::unique_ptr<Slot>& slot : slots_) {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    total += slot->shard->unique_keywords();
  }
  return total;
}

uint64_t ServerEngine::stored_index_bytes() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Slot>& slot : slots_) {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    total += slot->shard->stored_index_bytes();
  }
  return total;
}

size_t ServerEngine::document_count() const {
  std::shared_lock<std::shared_mutex> lock(docs_mutex_);
  return docs_.size();
}

}  // namespace sse::engine
