#include "taps.h"

#include <chrono>
#include <utility>

namespace perfbench {

using sse::Result;
using sse::net::Message;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient: return "core.client";
    case Layer::kRpc: return "net.rpc";
    case Layer::kAttempt: return "net.attempt";
    case Layer::kHandler: return "core.durable";
    case Layer::kEngine: return "engine";
    case Layer::kRoute: return "engine.route";
    case Layer::kShard: return "core.scheme";
    case Layer::kMerge: return "engine.merge";
    case Layer::kAppend: return "storage.append";
    case Layer::kSync: return "storage.sync";
    case Layer::kCount: break;
  }
  return "?";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Ctx& ThreadCtx() {
  thread_local Ctx ctx;
  return ctx;
}

void SpanStore::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(spans_mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanStore::Take() {
  std::lock_guard<std::mutex> lock(spans_mu_);
  return std::exchange(spans_, {});
}

void SpanStore::Register(uint64_t client_id, uint64_t seq, Ctx ctx) {
  std::lock_guard<std::mutex> lock(join_mu_);
  joins_[{client_id, seq}] = ctx;
}

void SpanStore::Unregister(uint64_t client_id, uint64_t seq) {
  std::lock_guard<std::mutex> lock(join_mu_);
  joins_.erase({client_id, seq});
}

Ctx SpanStore::Resolve(const Message& msg) const {
  // A caller on this thread (durable -> engine -> inline shard dispatch)
  // already knows the op; only cross-thread hops need the stamp.
  if (ThreadCtx().op != 0) return ThreadCtx();
  if (msg.has_session) {
    std::lock_guard<std::mutex> lock(join_mu_);
    auto it = joins_.find({msg.client_id, msg.seq});
    if (it != joins_.end()) return it->second;
  }
  return Ctx{};
}

SpanScope::SpanScope(SpanStore* store, Layer layer, Ctx parent)
    : store_(store), saved_(ThreadCtx()) {
  span_.layer = layer;
  span_.id = store->NewSpanId();
  span_.parent = parent.span;
  span_.op = parent.op;
  ThreadCtx() = Ctx{parent.op, span_.id};
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  span_.end_ns = NowNs();
  ThreadCtx() = saved_;
  store_->Record(span_);
}

// ---- channel ----------------------------------------------------------

ChannelTap::Open ChannelTap::Begin(const Message& req) {
  Open open;
  open.span.layer = wire_ ? Layer::kAttempt : Layer::kRpc;
  open.span.id = store_->NewSpanId();
  open.span.parent = ThreadCtx().span;
  open.span.op = ThreadCtx().op;
  if (wire_ && req.has_session) {
    open.stamped = true;
    open.client_id = req.client_id;
    open.seq = req.seq;
    store_->Register(req.client_id, req.seq, Ctx{open.span.op, open.span.id});
  }
  open.span.start_ns = NowNs();
  return open;
}

void ChannelTap::End(Open& open) {
  open.span.end_ns = NowNs();
  if (open.stamped) store_->Unregister(open.client_id, open.seq);
  store_->Record(open.span);
}

Result<Message> ChannelTap::Call(const Message& req) {
  if (!store_->enabled()) return inner_->Call(req);
  Open open = Begin(req);
  Result<Message> reply = inner_->Call(req);
  End(open);
  return reply;
}

sse::net::Channel::CallId ChannelTap::Submit(const Message& req) {
  if (!store_->enabled()) return inner_->Submit(req);
  Open open = Begin(req);
  const CallId id = inner_->Submit(req);
  open_[id] = open;
  return id;
}

Result<Message> ChannelTap::Await(CallId id) {
  Result<Message> reply = inner_->Await(id);
  auto it = open_.find(id);
  if (it != open_.end()) {
    End(it->second);
    open_.erase(it);
  }
  return reply;
}

std::vector<Result<Message>> ChannelTap::MultiCall(
    const std::vector<Message>& requests) {
  if (!store_->enabled()) return inner_->MultiCall(requests);
  Open open = Begin(Message{});
  std::vector<Result<Message>> replies = inner_->MultiCall(requests);
  End(open);
  return replies;
}

// ---- server -----------------------------------------------------------

Result<Message> HandlerTap::Handle(const Message& request) {
  if (!store_->enabled()) return inner_->Handle(request);
  const Ctx ctx = store_->Resolve(request);
  if (ctx.op == 0) store_->CountUnjoined();
  SpanScope scope(store_, Layer::kHandler, ctx);
  return inner_->Handle(request);
}

Result<Message> EngineTap::Handle(const Message& request) {
  if (!store_->enabled()) return inner_->Handle(request);
  const Ctx ctx = store_->Resolve(request);
  if (ctx.op == 0) store_->CountUnjoined();
  SpanScope scope(store_, Layer::kEngine, ctx);
  return inner_->Handle(request);
}

namespace {

class ShardTap : public sse::engine::SchemeShard {
 public:
  ShardTap(std::unique_ptr<sse::engine::SchemeShard> inner, SpanStore* store)
      : inner_(std::move(inner)), store_(store) {}
  Result<Message> Handle(const Message& request) override {
    if (!store_->enabled()) return inner_->Handle(request);
    const Ctx ctx = store_->Resolve(request);
    if (ctx.op == 0) store_->CountUnjoined();
    SpanScope scope(store_, Layer::kShard, ctx);
    return inner_->Handle(request);
  }
  Result<sse::Bytes> SerializeState() const override {
    return inner_->SerializeState();
  }
  sse::Status RestoreState(sse::BytesView data) override {
    return inner_->RestoreState(data);
  }
  size_t unique_keywords() const override { return inner_->unique_keywords(); }
  uint64_t stored_index_bytes() const override {
    return inner_->stored_index_bytes();
  }

 private:
  std::unique_ptr<sse::engine::SchemeShard> inner_;
  SpanStore* store_;
};

class FileTap : public sse::storage::WritableFile {
 public:
  FileTap(std::unique_ptr<sse::storage::WritableFile> inner, SpanStore* store)
      : inner_(std::move(inner)), store_(store) {}
  sse::Status Append(sse::BytesView data) override {
    if (!store_->enabled()) return inner_->Append(data);
    store_->wal_bytes.fetch_add(data.size());
    SpanScope scope(store_, Layer::kAppend, ThreadCtx());
    return inner_->Append(data);
  }
  sse::Status Sync() override {
    if (!store_->enabled()) return inner_->Sync();
    SpanScope scope(store_, Layer::kSync, ThreadCtx());
    return inner_->Sync();
  }
  sse::Status Close() override { return inner_->Close(); }
  uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<sse::storage::WritableFile> inner_;
  SpanStore* store_;
};

}  // namespace

std::unique_ptr<sse::engine::SchemeShard> AdapterTap::CreateShard() const {
  return std::make_unique<ShardTap>(inner_->CreateShard(), store_);
}

Result<sse::engine::RequestPlan> AdapterTap::Route(const Message& request,
                                                   size_t num_shards) const {
  if (!store_->enabled()) return inner_->Route(request, num_shards);
  SpanScope scope(store_, Layer::kRoute, store_->Resolve(request));
  return inner_->Route(request, num_shards);
}

Result<Message> AdapterTap::Merge(
    const Message& request, const sse::engine::RequestPlan& plan,
    std::vector<Message> replies,
    const sse::engine::DocumentFetcher& fetch_docs) const {
  if (!store_->enabled()) {
    return inner_->Merge(request, plan, std::move(replies), fetch_docs);
  }
  SpanScope scope(store_, Layer::kMerge, store_->Resolve(request));
  return inner_->Merge(request, plan, std::move(replies), fetch_docs);
}

Result<std::unique_ptr<sse::storage::WritableFile>> EnvTap::NewWritableFile(
    const std::string& path, bool truncate) {
  auto file = inner_->NewWritableFile(path, truncate);
  if (!file.ok()) return file.status();
  return std::unique_ptr<sse::storage::WritableFile>(
      new FileTap(std::move(file).value(), store_));
}

}  // namespace perfbench
