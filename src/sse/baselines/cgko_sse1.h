#ifndef SSE_BASELINES_CGKO_SSE1_H_
#define SSE_BASELINES_CGKO_SSE1_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sse/baselines/search_reply.h"
#include "sse/core/client_updates.h"
#include "sse/core/document_store.h"
#include "sse/core/persistable.h"
#include "sse/core/types.h"
#include "sse/core/wire_common.h"
#include "sse/crypto/keys.h"
#include "sse/crypto/prf.h"
#include "sse/index/btree.h"
#include "sse/net/channel.h"

namespace sse::baselines {

/// Baseline: Curtmola–Garay–Kamara–Ostrovsky SSE-1 (CCS 2006) — the
/// encrypted inverted index our paper credits with efficient search but
/// criticizes for updates ("only suitable for one-time construction").
///
/// Construction: all posting lists are chopped into fixed nodes
///   node_j = Enc_{key_j}( doc_id ‖ key_{j+1} ‖ addr_{j+1} )
/// scattered at random positions in one array A; a lookup table T maps
///   T[PRF(k1, w)] = (addr_1 ‖ key_1) ⊕ PRF(k2, w)
/// A trapdoor (PRF(k1,w), PRF(k2,w)) lets the server unmask the list head
/// and walk the chain: O(|D(w)|) work — optimal search.
///
/// The update story is the point of contrast: any document addition forces
/// the client to rebuild and re-upload the whole (A, T) index. Our client
/// therefore keeps the plaintext inverted index locally (keyword → ids) —
/// the very state the paper's schemes avoid — and every Store() re-runs the
/// full build.
inline constexpr uint16_t kMsgCgkoBuild = net::kMsgRangeBaseline + 21;
inline constexpr uint16_t kMsgCgkoBuildAck = net::kMsgRangeBaseline + 22;
inline constexpr uint16_t kMsgCgkoSearch = net::kMsgRangeBaseline + 23;
inline constexpr uint16_t kMsgCgkoSearchResult = net::kMsgRangeBaseline + 24;

/// T[PRF(k1, w)] = (addr_1 ‖ key_1) ⊕ PRF(k2, w).
struct CgkoTableEntry {
  Bytes token;
  Bytes masked_head;

  static constexpr auto kFields =
      std::tuple{&CgkoTableEntry::token, &CgkoTableEntry::masked_head};
};

/// Build: the whole index (A, T) and the documents new since the last
/// build. T arrives in the client's keyword order, not token order.
struct CgkoBuild {
  std::vector<Bytes> array;
  std::vector<CgkoTableEntry> table;
  std::vector<core::WireDocument> documents;

  SSE_WIRE_MESSAGE(CgkoBuild, kMsgCgkoBuild, &CgkoBuild::array,
                   &CgkoBuild::table, &CgkoBuild::documents)
};

using CgkoBuildAck = StoreAck<kMsgCgkoBuildAck>;

/// Search: the trapdoor (PRF(k1, w), PRF(k2, w)).
struct CgkoSearch {
  Bytes token;
  Bytes mask;

  SSE_WIRE_MESSAGE(CgkoSearch, kMsgCgkoSearch, &CgkoSearch::token,
                   &CgkoSearch::mask)
};

class CgkoServer : public core::PersistableHandler {
 public:
  Result<net::Message> Handle(const net::Message& request) override;
  Result<Bytes> SerializeState() const override;
  Status RestoreState(BytesView data) override;

  size_t array_size() const { return state_.array.size(); }
  size_t table_size() const { return state_.table.size(); }
  /// List nodes decrypted across all searches (O(|D(w)|) per search).
  uint64_t nodes_walked() const { return nodes_walked_; }
  /// Total bytes of index uploaded over the connection lifetime — the
  /// rebuild cost the benches report.
  uint64_t index_bytes_uploaded() const { return index_bytes_uploaded_; }

 private:
  Result<net::Message> HandleBuild(const net::Message& msg);
  Result<net::Message> HandleSearch(const net::Message& msg);

  struct State {
    std::vector<Bytes> array;      // A
    index::BTreeMap<Bytes> table;  // T: token -> masked (addr ‖ key)
    core::DocumentStore docs;

    static constexpr auto kFields =
        std::tuple{&State::array, &State::table, &State::docs};
  };

  State state_;
  uint64_t nodes_walked_ = 0;
  uint64_t index_bytes_uploaded_ = 0;
};

class CgkoClient : public core::SseClientInterface {
 public:
  static Result<std::unique_ptr<CgkoClient>> Create(
      const crypto::MasterKey& key, net::Channel* channel, RandomSource* rng);

  /// Rebuilds the entire index (the SSE-1 update cost) and uploads it with
  /// the new documents.
  Status Store(const std::vector<core::Document>& docs) override;
  Result<core::SearchOutcome> Search(std::string_view keyword) override;
  std::string name() const override { return "cgko-sse1"; }

 private:
  CgkoClient(crypto::Prf prf, core::DataCipher data, net::Channel* channel,
             RandomSource* rng);

  Result<Bytes> TableToken(std::string_view keyword) const;
  Result<Bytes> TableMask(std::string_view keyword) const;

  crypto::Prf prf_;
  core::DataCipher data_;
  net::Channel* channel_;
  RandomSource* rng_;

  /// The client-side plaintext inverted index SSE-1 needs for rebuilds.
  std::map<std::string, std::set<uint64_t>> postings_;
  core::UsedIds used_ids_;
};

}  // namespace sse::baselines

#endif  // SSE_BASELINES_CGKO_SSE1_H_
