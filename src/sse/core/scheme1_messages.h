#ifndef SSE_CORE_SCHEME1_MESSAGES_H_
#define SSE_CORE_SCHEME1_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "sse/core/wire_common.h"
#include "sse/net/message.h"
#include "sse/net/wire.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::core {

/// Wire messages for Scheme 1 (paper §5.2, Figs. 1 and 2).
///
/// Update (MetadataStorage) is the two-round exchange of Fig. 1, batched
/// over all keywords touched by a document batch:
///   round 1: NonceRequest(tokens)      -> NonceReply(F(r) per token)
///   round 2: UpdateRequest(deltas+docs) -> UpdateAck
/// Search is the two-round exchange of Fig. 2:
///   round 1: SearchRequest(token)       -> SearchNonceReply(F(r))
///   round 2: SearchFinish(token, r)     -> SearchResult(ids, documents)
inline constexpr uint16_t kMsgS1NonceRequest = net::kMsgRangeScheme1 + 1;
inline constexpr uint16_t kMsgS1NonceReply = net::kMsgRangeScheme1 + 2;
inline constexpr uint16_t kMsgS1UpdateRequest = net::kMsgRangeScheme1 + 3;
inline constexpr uint16_t kMsgS1UpdateAck = net::kMsgRangeScheme1 + 4;
inline constexpr uint16_t kMsgS1SearchRequest = net::kMsgRangeScheme1 + 5;
inline constexpr uint16_t kMsgS1SearchNonceReply = net::kMsgRangeScheme1 + 6;
inline constexpr uint16_t kMsgS1SearchFinish = net::kMsgRangeScheme1 + 7;
inline constexpr uint16_t kMsgS1SearchResult = net::kMsgRangeScheme1 + 8;

/// Round 1 of an update: the client asks for the current F(r) of every
/// keyword it is about to touch.
struct S1NonceRequest {
  std::vector<Bytes> tokens;  // f_{k_w}(w), one per unique keyword

  SSE_WIRE_MESSAGE(S1NonceRequest, kMsgS1NonceRequest,
                   &S1NonceRequest::tokens)
};

struct S1NonceEntry {
  bool present = false;  // does S(w) exist on the server yet?
  Bytes enc_nonce;       // F(r), empty when !present

  static constexpr auto kFields =
      std::tuple{&S1NonceEntry::present, &S1NonceEntry::enc_nonce};
};

struct S1NonceReply {
  std::vector<S1NonceEntry> entries;  // aligned with request.tokens

  SSE_WIRE_MESSAGE(S1NonceReply, kMsgS1NonceReply, &S1NonceReply::entries)
};

/// One keyword's contribution to round 2 of an update.
struct S1UpdateEntry {
  Bytes token;
  /// Existing keyword: U(w) ⊕ G(r) ⊕ G(r'); the server XORs this into the
  /// stored masked bitmap. New keyword: U(w) ⊕ G(r'), stored directly.
  Bytes masked_delta;
  Bytes new_enc_nonce;  // F(r')
  bool is_new = false;

  static constexpr auto kFields =
      std::tuple{&S1UpdateEntry::token, &S1UpdateEntry::masked_delta,
                 &S1UpdateEntry::new_enc_nonce, &S1UpdateEntry::is_new};
};

struct S1UpdateRequest {
  std::vector<S1UpdateEntry> entries;
  std::vector<WireDocument> documents;

  SSE_WIRE_MESSAGE(S1UpdateRequest, kMsgS1UpdateRequest,
                   &S1UpdateRequest::entries, &S1UpdateRequest::documents)
};

struct S1UpdateAck {
  uint64_t keywords_updated = 0;

  SSE_WIRE_MESSAGE(S1UpdateAck, kMsgS1UpdateAck,
                   &S1UpdateAck::keywords_updated)
};

struct S1SearchRequest {
  Bytes token;

  SSE_WIRE_MESSAGE(S1SearchRequest, kMsgS1SearchRequest,
                   &S1SearchRequest::token)
};

struct S1SearchNonceReply {
  bool found = false;
  Bytes enc_nonce;  // F(r) when found

  SSE_WIRE_MESSAGE(S1SearchNonceReply, kMsgS1SearchNonceReply,
                   &S1SearchNonceReply::found, &S1SearchNonceReply::enc_nonce)
};

struct S1SearchFinish {
  Bytes token;
  Bytes nonce;  // r, recovered by the client

  SSE_WIRE_MESSAGE(S1SearchFinish, kMsgS1SearchFinish, &S1SearchFinish::token,
                   &S1SearchFinish::nonce)
};

struct S1SearchResult {
  std::vector<uint64_t> ids;
  std::vector<WireDocument> documents;

  SSE_WIRE_MESSAGE(S1SearchResult, kMsgS1SearchResult, &S1SearchResult::ids,
                   &S1SearchResult::documents)
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME1_MESSAGES_H_
