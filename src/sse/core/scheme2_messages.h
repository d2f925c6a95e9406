#ifndef SSE_CORE_SCHEME2_MESSAGES_H_
#define SSE_CORE_SCHEME2_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "sse/core/wire_common.h"
#include "sse/net/message.h"
#include "sse/net/wire.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::core {

/// Wire messages for Scheme 2 (paper §5.5–5.6, Figs. 3 and 4).
///
/// Update (Fig. 3) is one-way + ack: the client ships, per keyword, a fresh
/// encrypted posting segment E_{k_j}(I_j(w)) and its public tag f'(k_j).
/// Search (Fig. 4) is a single round: the trapdoor carries the newest chain
/// element, from which the server walks the chain forward to every older
/// segment key. FetchAll/Reinit implement the chain re-initialization the
/// paper prescribes once the counter exhausts the chain.
inline constexpr uint16_t kMsgS2UpdateRequest = net::kMsgRangeScheme2 + 1;
inline constexpr uint16_t kMsgS2UpdateAck = net::kMsgRangeScheme2 + 2;
inline constexpr uint16_t kMsgS2SearchRequest = net::kMsgRangeScheme2 + 3;
inline constexpr uint16_t kMsgS2SearchResult = net::kMsgRangeScheme2 + 4;
inline constexpr uint16_t kMsgS2FetchAllRequest = net::kMsgRangeScheme2 + 5;
inline constexpr uint16_t kMsgS2FetchAllReply = net::kMsgRangeScheme2 + 6;
inline constexpr uint16_t kMsgS2ReinitRequest = net::kMsgRangeScheme2 + 7;
inline constexpr uint16_t kMsgS2ReinitAck = net::kMsgRangeScheme2 + 8;

/// One encrypted posting segment: the pair (E_{k_j}(I_j(w)), f'(k_j)).
struct S2Segment {
  Bytes ciphertext;
  Bytes tag;

  static constexpr auto kFields =
      std::tuple{&S2Segment::ciphertext, &S2Segment::tag};
};

struct S2UpdateEntry {
  Bytes token;  // f_{k_w}(w)
  S2Segment segment;

  static constexpr auto kFields =
      std::tuple{&S2UpdateEntry::token, &S2UpdateEntry::segment};
};

struct S2UpdateRequest {
  std::vector<S2UpdateEntry> entries;
  std::vector<WireDocument> documents;

  SSE_WIRE_MESSAGE(S2UpdateRequest, kMsgS2UpdateRequest,
                   &S2UpdateRequest::entries, &S2UpdateRequest::documents)
};

struct S2UpdateAck {
  uint64_t keywords_updated = 0;

  SSE_WIRE_MESSAGE(S2UpdateAck, kMsgS2UpdateAck,
                   &S2UpdateAck::keywords_updated)
};

struct S2SearchRequest {
  Bytes token;
  Bytes chain_element;  // t'_w = f^{l-ctr}(seed), the newest usable key

  SSE_WIRE_MESSAGE(S2SearchRequest, kMsgS2SearchRequest,
                   &S2SearchRequest::token, &S2SearchRequest::chain_element)
};

struct S2SearchResult {
  bool found = false;
  std::vector<uint64_t> ids;
  std::vector<WireDocument> documents;
  /// Server-side work counters, returned for the Table 1 benches: total
  /// chain steps walked and segments decrypted for this search.
  uint64_t chain_steps = 0;
  uint64_t segments_decrypted = 0;

  SSE_WIRE_MESSAGE(S2SearchResult, kMsgS2SearchResult, &S2SearchResult::found,
                   &S2SearchResult::ids, &S2SearchResult::documents,
                   &S2SearchResult::chain_steps,
                   &S2SearchResult::segments_decrypted)
};

struct S2KeywordDump {
  Bytes token;
  std::vector<S2Segment> segments;

  static constexpr auto kFields =
      std::tuple{&S2KeywordDump::token, &S2KeywordDump::segments};
};

struct S2FetchAllRequest {
  SSE_WIRE_MESSAGE(S2FetchAllRequest, kMsgS2FetchAllRequest)
};

struct S2FetchAllReply {
  std::vector<S2KeywordDump> keywords;

  SSE_WIRE_MESSAGE(S2FetchAllReply, kMsgS2FetchAllReply,
                   &S2FetchAllReply::keywords)
};

/// Replaces the entire keyword index with one fresh segment per keyword
/// (documents are untouched). Sent after the client rebuilt every posting
/// list under a new chain epoch.
struct S2ReinitRequest {
  std::vector<S2UpdateEntry> entries;

  SSE_WIRE_MESSAGE(S2ReinitRequest, kMsgS2ReinitRequest,
                   &S2ReinitRequest::entries)
};

struct S2ReinitAck {
  uint64_t keywords = 0;

  SSE_WIRE_MESSAGE(S2ReinitAck, kMsgS2ReinitAck, &S2ReinitAck::keywords)
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME2_MESSAGES_H_
