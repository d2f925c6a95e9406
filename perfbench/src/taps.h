// Tracing decorators for the benchmark's traced run.
//
// Each tap wraps one public seam of the serving stack and records a span
// per call: name (the layer), start, end, parent span and op id. Spans stay
// in memory (SpanStore) until the run ends. Client-side taps run on the
// owner's thread and read the op from a thread-local context; server-side
// taps join their op through the request's (client_id, seq) session stamp,
// which the wire tap registers when it sends the frame, and fall back to
// the thread-local context their caller on the same thread left behind
// (batch sub-ops and single-shard sub-requests run inline). A server span
// that joins neither way is kept with op 0 and counted as unjoined.
#ifndef PERFBENCH_TAPS_H_
#define PERFBENCH_TAPS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sse/core/persistable.h"
#include "sse/engine/scheme_shard.h"
#include "sse/net/channel.h"
#include "sse/storage/env.h"

namespace perfbench {

/// Span names, one per seam, ordered from the client inward.
enum class Layer : uint8_t {
  kClient,    // the scheme client's Store/Search call
  kRpc,       // Channel call above RetryingChannel
  kAttempt,   // Channel call above TcpChannel (one wire exchange)
  kHandler,   // MessageHandler call into DurableServer
  kEngine,    // PersistableHandler call into ServerEngine
  kRoute,     // SchemeAdapter::Route
  kShard,     // SchemeShard::Handle (one shard's scheme server)
  kMerge,     // SchemeAdapter::Merge (includes the document fetch)
  kAppend,    // WritableFile::Append on a WAL file
  kSync,      // WritableFile::Sync on a WAL file
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kClient;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;  // 0 = joined to no op
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// The op and enclosing span the current thread works for.
struct Ctx {
  uint64_t op = 0;
  uint64_t span = 0;
};

uint64_t NowNs();

/// In-memory span log plus the (client_id, seq) -> op join table. Disabled
/// stores record nothing, so taps cost one branch outside the timed phase.
class SpanStore {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  uint64_t NewSpanId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  std::vector<Span> Take();

  void Register(uint64_t client_id, uint64_t seq, Ctx ctx);
  void Unregister(uint64_t client_id, uint64_t seq);
  /// The op a stamped server-side message belongs to; falls back to the
  /// calling thread's context, and to op 0 (unjoined) after that.
  Ctx Resolve(const sse::net::Message& msg) const;

  uint64_t unjoined() const { return unjoined_.load(); }
  void CountUnjoined() { unjoined_.fetch_add(1); }

  /// Bytes appended to WAL files while enabled.
  std::atomic<uint64_t> wal_bytes{0};

 private:
  struct KeyHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
      return std::hash<uint64_t>()(k.first * 0x9e3779b97f4a7c15ULL ^ k.second);
    }
  };
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> unjoined_{0};
  std::mutex spans_mu_;
  std::vector<Span> spans_;
  mutable std::mutex join_mu_;
  std::unordered_map<std::pair<uint64_t, uint64_t>, Ctx, KeyHash> joins_;
};

Ctx& ThreadCtx();

/// Times a scope as one span and makes it the thread's current context.
class SpanScope {
 public:
  SpanScope(SpanStore* store, Layer layer, Ctx parent);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanStore* store_;
  Span span_;
  Ctx saved_;
};

/// Channel tap: `wire` selects the attempt layer (above TcpChannel, which
/// also registers session stamps for the server-side join) instead of the
/// rpc layer (above RetryingChannel).
class ChannelTap : public sse::net::Channel {
 public:
  ChannelTap(sse::net::Channel* inner, SpanStore* store, bool wire)
      : inner_(inner), store_(store), wire_(wire) {}

  sse::Result<sse::net::Message> Call(const sse::net::Message& req) override;
  CallId Submit(const sse::net::Message& req) override;
  sse::Result<sse::net::Message> Await(CallId id) override;
  size_t pending_calls() const override { return inner_->pending_calls(); }
  std::vector<sse::Result<sse::net::Message>> MultiCall(
      const std::vector<sse::net::Message>& requests) override;
  void Reset() override { inner_->Reset(); }
  void SetIoDeadlineMs(double ms) override { inner_->SetIoDeadlineMs(ms); }
  const sse::net::ChannelStats& stats() const override {
    return inner_->stats();
  }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  struct Open {
    Span span;
    bool stamped = false;
    uint64_t client_id = 0;
    uint64_t seq = 0;
  };
  Open Begin(const sse::net::Message& req);
  void End(Open& open);

  sse::net::Channel* inner_;
  SpanStore* store_;
  bool wire_;
  std::map<CallId, Open> open_;  // submitted, not yet awaited
};

/// MessageHandler tap between the TCP server and DurableServer.
class HandlerTap : public sse::net::MessageHandler {
 public:
  HandlerTap(sse::net::MessageHandler* inner, SpanStore* store)
      : inner_(inner), store_(store) {}
  sse::Result<sse::net::Message> Handle(
      const sse::net::Message& request) override;

 private:
  sse::net::MessageHandler* inner_;
  SpanStore* store_;
};

/// PersistableHandler tap between DurableServer and ServerEngine.
class EngineTap : public sse::core::PersistableHandler {
 public:
  EngineTap(sse::core::PersistableHandler* inner, SpanStore* store)
      : inner_(inner), store_(store) {}
  sse::Result<sse::net::Message> Handle(
      const sse::net::Message& request) override;
  sse::Result<sse::Bytes> SerializeState() const override {
    return inner_->SerializeState();
  }
  sse::Status RestoreState(sse::BytesView data) override {
    return inner_->RestoreState(data);
  }
  bool IsMutating(uint16_t msg_type) const override {
    return inner_->IsMutating(msg_type);
  }
  void OnStorageDegraded(const sse::Status& cause) override {
    inner_->OnStorageDegraded(cause);
  }

 private:
  sse::core::PersistableHandler* inner_;
  SpanStore* store_;
};

/// SchemeAdapter tap: times Route and Merge, and hands out shards wrapped
/// in a tap that times each shard's Handle.
class AdapterTap : public sse::engine::SchemeAdapter {
 public:
  AdapterTap(std::unique_ptr<sse::engine::SchemeAdapter> inner,
             SpanStore* store)
      : inner_(std::move(inner)), store_(store) {}
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<sse::engine::SchemeShard> CreateShard() const override;
  bool IsMutating(uint16_t msg_type) const override {
    return inner_->IsMutating(msg_type);
  }
  sse::engine::LockMode LockModeFor(uint16_t msg_type) const override {
    return inner_->LockModeFor(msg_type);
  }
  sse::Result<sse::engine::RequestPlan> Route(const sse::net::Message& request,
                                              size_t num_shards) const override;
  sse::Result<sse::net::Message> Merge(
      const sse::net::Message& request, const sse::engine::RequestPlan& plan,
      std::vector<sse::net::Message> replies,
      const sse::engine::DocumentFetcher& fetch_docs) const override;

 private:
  std::unique_ptr<sse::engine::SchemeAdapter> inner_;
  SpanStore* store_;
};

/// Env tap handed to DurableServer::Options::env: files it opens time
/// their Append and Sync calls.
class EnvTap : public sse::storage::Env {
 public:
  EnvTap(sse::storage::Env* inner, SpanStore* store)
      : inner_(inner), store_(store) {}
  sse::Result<std::unique_ptr<sse::storage::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  sse::Result<sse::Bytes> ReadFile(const std::string& path) override {
    return inner_->ReadFile(path);
  }
  bool FileExists(const std::string& path) override {
    return inner_->FileExists(path);
  }
  sse::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return inner_->ListDir(dir);
  }
  sse::Status Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  sse::Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  sse::Status SyncDir(const std::string& dir) override {
    return inner_->SyncDir(dir);
  }
  sse::Result<uint64_t> FileSize(const std::string& path) override {
    return inner_->FileSize(path);
  }

 private:
  sse::storage::Env* inner_;
  SpanStore* store_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TAPS_H_
