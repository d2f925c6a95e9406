#ifndef SSE_CORE_SCHEME3_MESSAGES_H_
#define SSE_CORE_SCHEME3_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "sse/core/wire_common.h"
#include "sse/crypto/sha256.h"
#include "sse/net/message.h"
#include "sse/net/wire.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::core {

/// Wire messages for Scheme 3, the forward-private dynamic scheme (after
/// Etemad–Küpçü; see DESIGN.md §13 and docs/PROTOCOL.md §8).
///
/// The defining property shows in what is ABSENT from the update wire
/// format: there is no keyword token. Update j of keyword w is stored
/// under the address f'(k_j) of a fresh per-keyword chain key
/// k_j = f^{l-j}(seed_w), so consecutive updates of the same keyword are
/// unlinkable to each other and — because f only walks toward *older*
/// keys — unlinkable to every previously released search trapdoor.
inline constexpr uint16_t kMsgS3UpdateRequest = net::kMsgRangeScheme3 + 1;
inline constexpr uint16_t kMsgS3UpdateAck = net::kMsgRangeScheme3 + 2;
inline constexpr uint16_t kMsgS3SearchRequest = net::kMsgRangeScheme3 + 3;
inline constexpr uint16_t kMsgS3SearchResult = net::kMsgRangeScheme3 + 4;
/// Engine-internal: one shard's slice of a walked trapdoor. The engine
/// refuses it from clients.
inline constexpr uint16_t kMsgS3ProbeRequest = net::kMsgRangeScheme3 + 5;

/// One forward-private index entry: the posting delta E_{k_j}(I_j(w))
/// filed under the unlinkable address f'(k_j).
struct S3UpdateEntry {
  Bytes address;     // f'(k_j)
  Bytes ciphertext;  // E_{k_j}(delta id list)

  static constexpr auto kFields =
      std::tuple{&S3UpdateEntry::address, &S3UpdateEntry::ciphertext};
};

struct S3UpdateRequest {
  std::vector<S3UpdateEntry> entries;
  std::vector<WireDocument> documents;

  SSE_WIRE_MESSAGE(S3UpdateRequest, kMsgS3UpdateRequest,
                   &S3UpdateRequest::entries, &S3UpdateRequest::documents)
};

struct S3UpdateAck {
  uint64_t entries_added = 0;

  SSE_WIRE_MESSAGE(S3UpdateAck, kMsgS3UpdateAck, &S3UpdateAck::entries_added)
};

/// Trapdoor(w) = (k_c, c): the newest chain key and the update counter.
/// The server derives every older address f'(f^i(k_c)) but no newer one.
struct S3SearchRequest {
  Bytes chain_element;
  uint32_t counter = 0;

  SSE_WIRE_MESSAGE(S3SearchRequest, kMsgS3SearchRequest,
                   &S3SearchRequest::chain_element, &S3SearchRequest::counter)
};

/// One position i of a trapdoor's walk: the address f'(k_i) an update
/// with key k_i was filed under, and that key.
struct S3Probe {
  crypto::Sha256Digest address;
  crypto::Sha256Digest key;

  static constexpr auto kFields = std::tuple{&S3Probe::address, &S3Probe::key};
};

/// The probes whose addresses one engine shard owns, newest first. On the
/// wire: a varint count, then one fixed 64-byte record (address ‖ key)
/// per probe.
struct S3ProbeRequest {
  std::vector<S3Probe> probes;

  SSE_WIRE_MESSAGE(S3ProbeRequest, kMsgS3ProbeRequest,
                   &S3ProbeRequest::probes)
};

struct S3SearchResult {
  bool found = false;
  std::vector<uint64_t> ids;
  std::vector<WireDocument> documents;
  /// Server-side work counters for the update-heavy benches: chain steps
  /// walked and entries decrypted for this search, at most counter - 1
  /// and counter (fewer when the walk resumed from an earlier search).
  uint64_t chain_steps = 0;
  uint64_t entries_decrypted = 0;

  SSE_WIRE_MESSAGE(S3SearchResult, kMsgS3SearchResult, &S3SearchResult::found,
                   &S3SearchResult::ids, &S3SearchResult::documents,
                   &S3SearchResult::chain_steps,
                   &S3SearchResult::entries_decrypted)
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME3_MESSAGES_H_
