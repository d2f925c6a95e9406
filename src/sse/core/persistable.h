#ifndef SSE_CORE_PERSISTABLE_H_
#define SSE_CORE_PERSISTABLE_H_

#include <cstdint>
#include <tuple>
#include <utility>

#include "sse/core/document_store.h"
#include "sse/index/btree.h"
#include "sse/net/channel.h"
#include "sse/net/wire.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::core {

/// A message handler whose full state can be checkpointed and which can
/// classify messages as mutating. DurableServer builds crash-safe servers
/// out of this: successfully applied mutating requests are journaled to a
/// WAL before the reply is released, snapshots capture SerializeState(),
/// and recovery is RestoreState(snapshot) + replay of the journaled
/// requests.
class PersistableHandler : public net::MessageHandler {
 public:
  /// Serializes the complete server state (index + document store).
  virtual Result<Bytes> SerializeState() const = 0;

  /// Replaces the server state with a previously serialized one.
  virtual Status RestoreState(BytesView data) = 0;

  /// True if handling a message of this type changes durable state.
  /// (Optimization-1 plaintext caches are soft state and do not count.)
  virtual bool IsMutating(uint16_t msg_type) const = 0;

  /// Called at most once when the DurableServer wrapping this handler
  /// fail-stops into read-only degraded mode after a storage fault (failed
  /// append or fsync). Handlers may surface the state in their metrics and
  /// start refusing mutations themselves; they must keep serving reads.
  virtual void OnStorageDegraded(const Status& cause) { (void)cause; }
};

/// The persistence the servers of Schemes 1-3 share: an index keyed by
/// token, whose `Entry` is the scheme's, and the documents.
template <typename Entry>
class TokenIndexServer : public PersistableHandler {
 public:
  /// The persisted state (docs/PROTOCOL.md §4): the index in token order,
  /// each token followed by its entry, then the document section.
  struct State {
    index::BTreeMap<Entry> index;
    DocumentStore docs;

    static constexpr auto kFields = std::tuple{&State::index, &State::docs};
  };

  Result<Bytes> SerializeState() const override {
    return net::wire::Serialize(state_);
  }

  Status RestoreState(BytesView data) override {
    SSE_ASSIGN_OR_RETURN(state_, net::wire::Parse<State>(data));
    index_bytes_ = 0;
    state_.index.ForEach([&](const Bytes& token, const Entry& entry) {
      index_bytes_ += IndexBytes(token, entry);
      return true;
    });
    return Status::OK();
  }

  /// Index entries: the unique keywords (u in the paper) of Schemes 1 and
  /// 2. Scheme 3 holds one per counted update and cannot know how many
  /// keywords they cover; this is the closest analogue it has.
  size_t unique_keywords() const { return state_.index.size(); }
  size_t document_count() const { return state_.docs.size(); }
  uint64_t stored_index_bytes() const { return index_bytes_; }
  /// Lookup comparisons performed by the token tree (for T1-search).
  uint64_t index_comparisons() const { return state_.index.comparisons(); }

 protected:
  /// What one entry of a restored index adds to stored_index_bytes(); the
  /// handlers keep the count up to date as the index changes.
  virtual uint64_t IndexBytes(const Bytes& token, const Entry& entry) const = 0;

  State state_;
  uint64_t index_bytes_ = 0;
};

}  // namespace sse::core

#endif  // SSE_CORE_PERSISTABLE_H_
