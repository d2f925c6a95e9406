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

}  // namespace

ServerEngine::ServerEngine(std::unique_ptr<SchemeAdapter> adapter,
                           EngineOptions options)
    : adapter_(std::move(adapter)),
      options_(options),
      metrics_(options.num_shards) {}

Result<std::unique_ptr<ServerEngine>> ServerEngine::Create(
    std::unique_ptr<SchemeAdapter> adapter, const EngineOptions& options) {
  if (adapter == nullptr) {
    return Status::InvalidArgument("engine adapter must be non-null");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("engine needs at least one shard");
  }
  auto engine = std::unique_ptr<ServerEngine>(
      new ServerEngine(std::move(adapter), options));
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
  size_t workers = options.worker_threads;
  if (workers == 0) workers = options.num_shards;
  if (workers > options.num_shards) workers = options.num_shards;
  engine->pool_ = std::make_unique<WorkerPool>(workers);

  // Expose this engine in the process-wide registry. Several engines in
  // one process (common in tests) register the same names; the registry
  // merges them at scrape time.
  auto& registry = obs::MetricsRegistry::Global();
  ServerEngine* raw = engine.get();
  engine->registrations_.push_back(registry.RegisterHistogram(
      "sse_engine_handle_seconds",
      [raw] { return raw->metrics_.handle_latency().Snap(); },
      "Whole-request engine handling latency"));
  engine->registrations_.push_back(registry.RegisterHistogram(
      "sse_engine_lock_wait_seconds",
      [raw] { return raw->metrics_.lock_wait().Snap(); },
      "Per-sub-request shard lock acquisition wait"));
  engine->registrations_.push_back(registry.RegisterGauge(
      "sse_engine_degraded",
      [raw] { return raw->metrics_.degraded() ? 1.0 : 0.0; },
      "1 once the storage layer fail-stopped this engine to read-only"));
  engine->registrations_.push_back(registry.RegisterGauge(
      "sse_engine_requests",
      [raw] { return static_cast<double>(raw->metrics_.Snap().requests); },
      "Requests handled by live engines"));
  if (raw->reply_cache_ != nullptr) {
    engine->registrations_.push_back(registry.RegisterGauge(
        "sse_engine_reply_cache_entries",
        [raw] {
          return static_cast<double>(raw->reply_cache_->entry_count());
        },
        "Replies retained in the at-most-once dedup cache"));
  }
  return engine;
}

Result<net::Message> ServerEngine::Handle(const net::Message& request) {
  metrics_.AddRequest();
  // Parent to the thread-local context (in-process call chains) or to the
  // message's wire trace header (TCP dispatch threads).
  obs::ScopedSpan handle_span("engine.handle", obs::ParentFor(request));
  handle_span.Annotate("msg_type", request.type);
  const Clock::time_point t0 = Clock::now();
  Result<net::Message> reply = request.type == net::kMsgBatch
                                   ? HandleBatch(request)
                                   : HandleDeduped(request, /*allow_pool=*/true);
  metrics_.handle_latency().Record(NanosSince(t0));
  return reply;
}

Result<net::Message> ServerEngine::HandleBatch(const net::Message& request) {
  std::vector<net::Message> subs;
  SSE_ASSIGN_OR_RETURN(subs, net::UnpackBatch(request));
  const size_t n = subs.size();
  metrics_.AddBatch(n);

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
  if (metrics_.degraded() && IsMutating(request.type) &&
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
      static auto* dedup_hits = obs::MetricsRegistry::Global().GetCounter(
          "sse_engine_dedup_hits_total",
          "Retried calls served from the reply cache");
      dedup_hits->Add();
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
  if (request.type == net::kMsgFetchDocuments) {
    return HandleFetchDocuments(request);
  }

  RequestPlan plan;
  SSE_ASSIGN_OR_RETURN(plan, adapter_->Route(request, slots_.size()));
  if (plan.subs.size() > 1) {
    if (plan.subs.size() == slots_.size()) {
      metrics_.AddBroadcast();
    } else {
      metrics_.AddScatter();
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
    metrics_.AddDocPuts(plan.documents.size());
  }

  DocumentFetcher fetcher =
      [this](const std::vector<uint64_t>& ids)
      -> Result<std::vector<std::pair<uint64_t, Bytes>>> {
    std::shared_lock<std::shared_mutex> lock(docs_mutex_);
    metrics_.AddDocFetches(ids.size());
    return docs_.GetMany(ids);
  };
  return adapter_->Merge(request, plan, std::move(replies), fetcher);
}

Result<net::Message> ServerEngine::HandleFetchDocuments(
    const net::Message& request) {
  BufferReader r(request.payload);
  std::vector<uint64_t> ids;
  SSE_ASSIGN_OR_RETURN(ids, core::GetIdList(r));
  SSE_RETURN_IF_ERROR(r.ExpectEnd());

  std::vector<std::pair<uint64_t, Bytes>> fetched;
  {
    std::shared_lock<std::shared_mutex> lock(docs_mutex_);
    fetched = docs_.GetMany(ids);
  }
  metrics_.AddDocFetches(ids.size());

  std::vector<core::WireDocument> docs;
  docs.reserve(fetched.size());
  for (auto& [id, blob] : fetched) {
    docs.push_back(core::WireDocument{id, std::move(blob)});
  }
  BufferWriter w;
  core::PutWireDocuments(w, docs);
  net::Message reply;
  reply.type = net::kMsgFetchDocumentsResult;
  reply.payload = w.TakeData();
  return reply;
}

Result<net::Message> ServerEngine::DispatchSub(
    const SubRequest& sub, const obs::TraceContext& parent) {
  Slot& slot = *slots_[sub.shard];
  ShardCounters& counters = metrics_.shard(sub.shard);
  const LockMode mode = adapter_->LockModeFor(sub.message.type);
  obs::ScopedSpan shard_span("engine.shard", parent);
  shard_span.Annotate("shard", sub.shard);
  shard_span.Annotate("exclusive", mode == LockMode::kExclusive ? 1 : 0);
  Result<net::Message> reply = [&]() -> Result<net::Message> {
    const Clock::time_point t0 = Clock::now();
    if (mode == LockMode::kExclusive) {
      std::unique_lock<std::shared_mutex> lock(slot.mutex);
      metrics_.lock_wait().Record(NanosSince(t0));
      counters.writes.fetch_add(1, std::memory_order_relaxed);
      return slot.shard->Handle(sub.message);
    }
    std::shared_lock<std::shared_mutex> lock(slot.mutex);
    metrics_.lock_wait().Record(NanosSince(t0));
    counters.reads.fetch_add(1, std::memory_order_relaxed);
    return slot.shard->Handle(sub.message);
  }();
  if (!reply.ok()) counters.errors.fetch_add(1, std::memory_order_relaxed);
  return reply;
}

void ServerEngine::OnStorageDegraded(const Status& cause) {
  (void)cause;
  metrics_.SetDegraded();
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
