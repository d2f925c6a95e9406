#ifndef SSE_BASELINES_SEARCH_REPLY_H_
#define SSE_BASELINES_SEARCH_REPLY_H_

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sse/core/document_store.h"
#include "sse/core/persistable.h"
#include "sse/core/types.h"
#include "sse/core/wire_common.h"
#include "sse/net/channel.h"
#include "sse/net/wire.h"
#include "sse/util/random.h"

namespace sse::baselines {

/// What the baselines share (docs/PROTOCOL.md §9): every baseline's search
/// reply and store ack, and the store request, server state, client half
/// and server half of the two linear-scan baselines, SWP and Goh.

/// The one-round search reply every baseline sends under its own type
/// constant: the matching ids, then the stored documents among them.
template <uint16_t kMsgType>
struct SearchReply {
  std::vector<uint64_t> ids;
  std::vector<core::WireDocument> documents;

  SSE_WIRE_MESSAGE(SearchReply, kMsgType, &SearchReply::ids,
                   &SearchReply::documents)
};

/// Client side: decodes a SearchReply<kMsgType> and decrypts its documents.
template <uint16_t kMsgType>
Result<core::SearchOutcome> OpenSearchReply(const net::Message& msg,
                                            const core::DataCipher& data) {
  SearchReply<kMsgType> reply;
  SSE_ASSIGN_OR_RETURN(reply, SearchReply<kMsgType>::FromMessage(msg));
  core::SearchOutcome outcome;
  outcome.ids = std::move(reply.ids);
  SSE_RETURN_IF_ERROR(data.OpenAll(reply.documents, outcome));
  return outcome;
}

/// The server's answer to a store (CGKO: a build): the number of documents
/// the request carried (CGKO: of list nodes the server now holds).
template <uint16_t kMsgType>
struct StoreAck {
  uint64_t count = 0;

  SSE_WIRE_MESSAGE(StoreAck, kMsgType, &StoreAck::count)
};

/// A document as SWP and Goh store it: its id, its sealed blob, and the
/// part their server scans on every search (SWP's word blocks, Goh's Bloom
/// filter).
struct ScanDocument {
  uint64_t id = 0;
  Bytes blob;
  Bytes scanned;

  static constexpr auto kFields = std::tuple{
      &ScanDocument::id, &ScanDocument::blob, &ScanDocument::scanned};
};

template <uint16_t kMsgType>
struct ScanStore {
  std::vector<ScanDocument> documents;

  SSE_WIRE_MESSAGE(ScanStore, kMsgType, &ScanStore::documents)
};

/// The client half SWP and Goh share: a store seals each document and
/// sends it with the part the server will scan.
template <uint16_t kStore, uint16_t kStoreAck>
class ScanClient : public core::SseClientInterface {
 public:
  Status Store(const std::vector<core::Document>& docs) override {
    if (docs.empty()) return Status::OK();
    ScanStore<kStore> req;
    for (const core::Document& doc : docs) {
      ScanDocument stored{doc.id, {}, {}};
      SSE_ASSIGN_OR_RETURN(stored.blob, data_.Seal(doc, *rng_));
      SSE_ASSIGN_OR_RETURN(stored.scanned, Scanned(doc));
      req.documents.push_back(std::move(stored));
    }
    net::Message ack;
    SSE_ASSIGN_OR_RETURN(ack, channel_->Call(req.ToMessage()));
    return StoreAck<kStoreAck>::FromMessage(ack).status();
  }

 protected:
  ScanClient(core::DataCipher data, net::Channel* channel, RandomSource* rng)
      : data_(std::move(data)), channel_(channel), rng_(rng) {}

  /// The part of `doc` the server scans.
  virtual Result<Bytes> Scanned(const core::Document& doc) const = 0;

  core::DataCipher data_;
  net::Channel* channel_;
  RandomSource* rng_;
};

/// The server half SWP and Goh share: each stored document arrives with
/// the part the server scans, kept in arrival order beside the documents,
/// and every search scans the parts of all documents.
template <uint16_t kStore, uint16_t kStoreAck, uint16_t kSearch>
class ScanServer : public core::PersistableHandler {
 public:
  Result<net::Message> Handle(const net::Message& request) override {
    if (request.type == kSearch) return HandleSearch(request);
    ScanStore<kStore> req;
    SSE_ASSIGN_OR_RETURN(req, ScanStore<kStore>::FromMessage(request));
    for (const ScanDocument& doc : req.documents) {
      SSE_RETURN_IF_ERROR(CheckScanned(doc.scanned));
    }
    for (ScanDocument& doc : req.documents) {
      state_.docs.Put(doc.id, std::move(doc.blob));
      state_.entries.push_back(Entry{doc.id, std::move(doc.scanned)});
    }
    return StoreAck<kStoreAck>{req.documents.size()}.ToMessage();
  }

  Result<Bytes> SerializeState() const override {
    return net::wire::Serialize(state_);
  }

  Status RestoreState(BytesView data) override {
    State state;
    SSE_ASSIGN_OR_RETURN(state, net::wire::Parse<State>(data));
    for (const Entry& entry : state.entries) {
      SSE_RETURN_IF_ERROR(CheckScanned(entry.scanned));
    }
    state_ = std::move(state);
    return Status::OK();
  }

  size_t document_count() const { return state_.docs.size(); }

 protected:
  struct Entry {
    uint64_t id = 0;
    Bytes scanned;

    static constexpr auto kFields = std::tuple{&Entry::id, &Entry::scanned};
  };

  /// The persisted state: the scanned parts in arrival order (an id stored
  /// twice is listed twice), then the documents.
  struct State {
    std::vector<Entry> entries;
    core::DocumentStore docs;

    static constexpr auto kFields =
        std::tuple{&State::entries, &State::docs};
  };

  /// OK when `scanned` is a well-formed scanned part; checked on every
  /// store and restore.
  virtual Status CheckScanned(const Bytes& scanned) const = 0;
  virtual Result<net::Message> HandleSearch(const net::Message& msg) = 0;

  State state_;
};

}  // namespace sse::baselines

#endif  // SSE_BASELINES_SEARCH_REPLY_H_
