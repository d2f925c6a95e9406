#ifndef SSE_CORE_OPTIONS_H_
#define SSE_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "sse/crypto/elgamal.h"

namespace sse::core {

/// Public parameters shared by client and server. Everything here is known
/// to the adversary; secrets live only in the client's MasterKey.
struct SchemeOptions {
  /// Scheme 1: capacity of the posting bitmap I(w). Document identifiers
  /// must be < max_documents; the bitmap occupies max_documents/8 bytes per
  /// keyword on the server and per update message on the wire.
  size_t max_documents = 1 << 16;

  /// Scheme 2: length `l` of the per-keyword pseudo-random chain; at most
  /// `l` counted updates can occur before the index must re-initialize.
  uint32_t chain_length = 1 << 12;

  /// Scheme 2, Optimization 1: the server keeps searched posting lists
  /// decrypted, so repeat searches only decrypt newly added segments.
  bool server_plaintext_cache = true;

  /// Bound on Optimization 1's memory: at most this many keywords keep
  /// their decrypted posting list cached; beyond it the least-recently-
  /// searched keyword's cache is dropped (soft state — its next search
  /// simply re-decrypts every segment). 0 = unbounded, the paper's
  /// original behavior.
  size_t plaintext_cache_max_entries = 0;

  /// Scheme 2, Optimization 2: bump the global counter only when a search
  /// happened since the last update; consecutive updates then share a chain
  /// element, slowing exhaustion by the factor x of Table 1.
  bool counter_after_search_only = true;

  /// Scheme 1: group for the ElGamal instantiation of F.
  crypto::ElGamalGroupId elgamal_group = crypto::ElGamalGroupId::kModp2048;

  /// Route multi-keyword protocol rounds (Store's per-keyword updates,
  /// MultiSearch) through the channel's MultiCall as independent per-keyword
  /// ops instead of one monolithic message per round. Over a
  /// RetryingChannel the ops are packed into pipelined kMsgBatch envelopes
  /// — a K-keyword round then costs ~1 frame instead of K round trips —
  /// and retain per-op exactly-once dedup. Off by default: the monolithic
  /// path is the paper's wire format and what the Table 1 byte counts
  /// measure.
  bool batch_ops = false;
};

}  // namespace sse::core

#endif  // SSE_CORE_OPTIONS_H_
