#include "sse/engine/server_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sse/net/batch.h"
#include "sse/net/deadline.h"
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
  engine->pool_ = std::make_unique<WorkerPool>(options.num_shards);

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
                                   : HandleDeduped(request, /*allow_pool=*/true);
  handle_latency_.Record(NanosSince(t0));
  return reply;
}

Result<net::Message> ServerEngine::HandleBatch(const net::Message& request) {
  std::vector<net::Message> subs;
  SSE_ASSIGN_OR_RETURN(subs, net::UnpackBatch(request));
  const size_t n = subs.size();
  EngineCounters::Get().batches->Add();
  EngineCounters::Get().batch_ops->Add(n);

  // Fan the sub-ops across the worker pool; each travels the normal
  // single-op path (dedup, routing, shard locks) and so cannot be told
  // apart from a client that sent it alone. Sub-ops running as pool tasks
  // must not re-enter the pool for their own scatters (allow_pool=false).
  const bool use_pool = n > 1;
  // Captured explicitly: pool workers carry their own (empty) thread-local
  // context, so batch sub-op spans must parent through this value.
  const obs::TraceContext batch_ctx = obs::CurrentContext();
  // Same capture trick for the caller's deadline: checked at every sub-op
  // boundary so a batch that outlives its budget stops burning workers —
  // already-finished neighbors keep their real replies, the rest get
  // per-op DEADLINE_EXCEEDED entries (retryable, and their stable sub-op
  // seqs make the re-send dedup cleanly).
  const net::Deadline batch_deadline = net::CurrentDeadline();
  auto run_one = [this, &subs, use_pool, batch_ctx,
                  batch_deadline](size_t i) -> net::Message {
    if (subs[i].type == net::kMsgBatch) {
      return net::MakeErrorMessage(
          Status::InvalidArgument("batch envelopes cannot nest"));
    }
    if (batch_deadline.Expired()) {
      return net::MakeErrorMessage(net::DeadlineExceededStatus("mid-batch"));
    }
    // Pool workers carry an empty thread-local deadline; re-publish the
    // envelope's for anything below (e.g. the durable pre-append check).
    net::ScopedDeadline op_deadline(batch_deadline);
    obs::ScopedSpan op_span("engine.batch_op", batch_ctx);
    op_span.Annotate("batch_index", i);
    op_span.Annotate("seq", subs[i].seq);
    Result<net::Message> r = HandleDeduped(subs[i], /*allow_pool=*/!use_pool);
    if (!r.ok()) return net::MakeErrorMessage(r.status());
    return std::move(r).value();
  };
  std::vector<net::Message> outs(n);
  if (use_pool) {
    // One pool task per contiguous chunk of sub-ops, not one per sub-op:
    // a small sub-op finishes faster than a queue handoff costs, so
    // per-op tasks would spend more time in the pool mutex than in the
    // index. Chunking bounds handoffs at the worker count.
    const size_t chunks =
        std::max<size_t>(1, std::min(pool_->thread_count(), n));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(chunks);
    for (size_t c = 0; c < chunks; ++c) {
      const size_t begin = c * n / chunks;
      const size_t end = (c + 1) * n / chunks;
      tasks.push_back([&outs, &run_one, begin, end] {
        for (size_t i = begin; i < end; ++i) outs[i] = run_one(i);
      });
    }
    pool_->RunBatch(std::move(tasks));
  } else {
    for (size_t i = 0; i < n; ++i) outs[i] = run_one(i);
  }

  return net::PackBatchReply(request, std::move(outs));
}

Result<net::Message> ServerEngine::HandleDeduped(const net::Message& request,
                                                 bool allow_pool) {
  if (degraded() && IsMutating(request.type) &&
      request.type != net::kMsgBatch) {
    // Read-only after a storage fault: the DurableServer in front of us
    // already rejects mutations, but a bare engine (or a bug above) must
    // not mutate state that can no longer be journaled. Batch envelopes
    // pass through — their sub-ops are classified individually here.
    return Status::Unavailable("engine degraded after storage fault");
  }
  if (reply_cache_ == nullptr || !request.has_session) {
    return HandleInternal(request, allow_pool);
  }
  if (!IsMutating(request.type)) {
    // Read-only calls are idempotent: re-executing a retry is harmless and
    // cheaper than recording multi-KB search results in the cache. Echo
    // the stamp so the client can still match the reply to its call.
    Result<net::Message> reply = HandleInternal(request, allow_pool);
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
  Result<net::Message> reply = HandleInternal(request, allow_pool);
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

Result<net::Message> ServerEngine::HandleInternal(const net::Message& request,
                                                  bool allow_pool) {
  RequestPlan plan;
  SSE_ASSIGN_OR_RETURN(plan, adapter_->Route(request, slots_.size()));
  if (plan.subs.size() > 1) {
    if (plan.subs.size() == slots_.size()) {
      EngineCounters::Get().broadcasts->Add();
    } else {
      EngineCounters::Get().scatters->Add();
    }
  }

  std::vector<net::Message> replies(plan.subs.size());
  Status first_error = Status::OK();
  const obs::TraceContext scatter_ctx = obs::CurrentContext();
  if (plan.subs.size() == 1) {
    Result<net::Message> reply = DispatchSub(plan.subs[0], scatter_ctx);
    if (!reply.ok()) return reply.status();
    replies[0] = std::move(reply).value();
  } else if (!plan.subs.empty()) {
    std::vector<Status> statuses(plan.subs.size(), Status::OK());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(plan.subs.size());
    for (size_t i = 0; i < plan.subs.size(); ++i) {
      tasks.push_back([this, &plan, &replies, &statuses, scatter_ctx, i] {
        Result<net::Message> reply = DispatchSub(plan.subs[i], scatter_ctx);
        if (reply.ok()) {
          replies[i] = std::move(reply).value();
        } else {
          statuses[i] = reply.status();
        }
      });
    }
    if (allow_pool) {
      pool_->RunBatch(std::move(tasks));
    } else {
      for (auto& task : tasks) task();
    }
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
  }

  if (!plan.documents.empty()) {
    std::unique_lock<std::shared_mutex> lock(docs_mutex_);
    for (core::WireDocument& doc : plan.documents) {
      docs_.Put(doc.id, std::move(doc.ciphertext));
    }
    EngineCounters::Get().doc_puts->Add(plan.documents.size());
  }

  DocumentFetcher fetcher =
      [this](const std::vector<uint64_t>& ids)
      -> Result<std::vector<std::pair<uint64_t, Bytes>>> {
    std::shared_lock<std::shared_mutex> lock(docs_mutex_);
    EngineCounters::Get().doc_fetches->Add(ids.size());
    return docs_.GetMany(ids);
  };
  return adapter_->Merge(request, plan, std::move(replies), fetcher);
}

Result<net::Message> ServerEngine::DispatchSub(
    const SubRequest& sub, const obs::TraceContext& parent) {
  Slot& slot = *slots_[sub.shard];
  EngineCounters& counters = EngineCounters::Get();
  const LockMode mode = adapter_->LockModeFor(sub.message.type);
  obs::ScopedSpan shard_span("engine.shard", parent);
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

bool ServerEngine::IsMutating(uint16_t msg_type) const {
  // A batch envelope may carry mutating sub-ops; callers that cannot see
  // inside it (WAL policy, serialization guards) must assume it does.
  if (msg_type == net::kMsgBatch) return true;
  return adapter_->IsMutating(msg_type);
}

Result<Bytes> ServerEngine::SerializeState() const {
  BufferWriter w;
  w.PutU32(kEngineSnapshotMagic);
  w.PutVarint(slots_.size());
  {
    std::shared_lock<std::shared_mutex> lock(docs_mutex_);
    w.PutVarint(docs_.size());
    docs_.ForEach([&](uint64_t id, const Bytes& blob) {
      w.PutVarint(id);
      w.PutBytes(blob);
      return true;
    });
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
  uint64_t doc_count = 0;
  SSE_ASSIGN_OR_RETURN(doc_count, r.GetVarint());
  storage::DocumentStore docs;
  for (uint64_t i = 0; i < doc_count; ++i) {
    uint64_t id = 0;
    SSE_ASSIGN_OR_RETURN(id, r.GetVarint());
    Bytes blob;
    SSE_ASSIGN_OR_RETURN(blob, r.GetBytes());
    docs.Put(id, std::move(blob));
  }
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

uint64_t ServerEngine::document_bytes() const {
  std::shared_lock<std::shared_mutex> lock(docs_mutex_);
  return docs_.total_bytes();
}

}  // namespace sse::engine
