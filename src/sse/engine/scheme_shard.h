#ifndef SSE_ENGINE_SCHEME_SHARD_H_
#define SSE_ENGINE_SCHEME_SHARD_H_

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "sse/core/wire_common.h"
#include "sse/net/message.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::engine {

/// How a message type must lock the shard it is dispatched to: a mutation
/// exclusively, everything else shared. No search writes its shard; what a
/// search remembers (Optimization 1) goes into a core::SearchCache, which
/// has its own lock.
enum class LockMode { kShared, kExclusive };

/// One shard's slice of a scheme server: the keyword entries whose tokens
/// route to it. Shards never store document ciphertexts — those live in the
/// engine's shared store — and they never see messages for tokens they do
/// not own. Implementations wrap an unmodified scheme server. The engine's
/// per-shard reader-writer lock keeps a mutation apart from everything
/// else; messages that share the lock must be safe to handle concurrently,
/// so a server's search path may write only relaxed stat counters and its
/// own thread-safe SearchCache.
class SchemeShard {
 public:
  virtual ~SchemeShard() = default;

  virtual Result<net::Message> Handle(const net::Message& request) = 0;
  virtual Result<Bytes> SerializeState() const = 0;
  virtual Status RestoreState(BytesView data) = 0;

  virtual size_t unique_keywords() const = 0;
  virtual uint64_t stored_index_bytes() const = 0;
};

/// Wraps any scheme server type (Scheme1Server, Scheme2Server, ...) as a
/// SchemeShard. The server's own document store stays empty — the routing
/// adapter strips documents out of updates before they reach a shard. The
/// server handles its non-mutating messages under a shared lock (LockMode),
/// so several searches may run in it at once.
template <typename Server>
class ServerShard : public SchemeShard {
 public:
  template <typename... Args>
  explicit ServerShard(Args&&... args) : server_(std::forward<Args>(args)...) {}

  Result<net::Message> Handle(const net::Message& request) override {
    return server_.Handle(request);
  }
  Result<Bytes> SerializeState() const override {
    return server_.SerializeState();
  }
  Status RestoreState(BytesView data) override {
    return server_.RestoreState(data);
  }
  size_t unique_keywords() const override { return server_.unique_keywords(); }
  uint64_t stored_index_bytes() const override {
    return server_.stored_index_bytes();
  }

  Server& server() { return server_; }
  const Server& server() const { return server_; }

 private:
  Server server_;
};

/// One shard's slice of a client request.
struct SubRequest {
  size_t shard = 0;
  net::Message message;
  /// For merges that must realign per-token reply entries with the original
  /// request order (e.g. S1NonceReply): positions[i] is the index in the
  /// original token list of this sub-request's i-th token.
  std::vector<size_t> positions;
};

/// The routing decision for one decoded request: which shards see which
/// sub-request, which documents the engine stores, and how the reply is
/// reassembled.
struct RequestPlan {
  std::vector<SubRequest> subs;
  /// Documents stripped from a mutating request; the engine stores them in
  /// its shared document store after every sub-request succeeded.
  std::vector<core::WireDocument> documents;
  /// What Route learned that Merge needs and no sub-request carries
  /// (Scheme 3: where a search's walk stopped). Only the adapter reads it.
  std::any merge_state;
};

/// Fetches the documents of the given ids from the engine's shared
/// document store (core::DocumentStore::Fetch, under the store's lock);
/// handed to Merge so a search reply carries its result's documents.
using DocumentFetcher = std::function<std::vector<core::WireDocument>(
    const std::vector<uint64_t>&)>;

/// Scheme-specific sharding policy: how to create shard-local state, how to
/// split a request across shards, and how to merge the shard replies into
/// the single reply the (unmodified) scheme client expects. One adapter
/// serves every thread that calls the engine. Index state lives in shards
/// or in the engine; an adapter may keep only soft state derived from what
/// searches revealed (Scheme 3's resume cache), thread-safe on its own and
/// dropped by OnStateRestored().
class SchemeAdapter {
 public:
  virtual ~SchemeAdapter() = default;

  virtual std::string_view name() const = 0;
  virtual std::unique_ptr<SchemeShard> CreateShard() const = 0;
  virtual bool IsMutating(uint16_t msg_type) const = 0;
  /// Mutations lock their shard exclusively, everything else shared.
  /// Virtual so that a wrapping adapter can forward to the one it wraps.
  virtual LockMode LockModeFor(uint16_t msg_type) const {
    return IsMutating(msg_type) ? LockMode::kExclusive : LockMode::kShared;
  }

  /// Decodes `request` and splits it into per-shard sub-requests.
  virtual Result<RequestPlan> Route(const net::Message& request,
                                    size_t num_shards) const = 0;

  /// Reassembles shard replies (aligned with plan.subs) into one reply.
  /// Only called when every sub-request succeeded.
  virtual Result<net::Message> Merge(const net::Message& request,
                                     const RequestPlan& plan,
                                     std::vector<net::Message> replies,
                                     const DocumentFetcher& fetch_docs)
      const = 0;

  /// Called by the engine once RestoreState has swapped every shard, while
  /// it still holds the shard locks: forget what was learned from the old
  /// shards.
  virtual void OnStateRestored() {}
};

}  // namespace sse::engine

#endif  // SSE_ENGINE_SCHEME_SHARD_H_
