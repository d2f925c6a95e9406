#ifndef SSE_CORE_SEGMENT_H_
#define SSE_CORE_SEGMENT_H_

#include <cstdint>
#include <vector>

#include "sse/core/scheme2_messages.h"
#include "sse/index/posting.h"
#include "sse/util/bytes.h"
#include "sse/util/random.h"
#include "sse/util/result.h"

namespace sse::core {

/// The posting-segment codec of the chain-keyed schemes. A segment is one
/// update's id list sealed under one chain key k: the ciphertext
/// E_k(EncodeIdList(ids)) next to the public tag f'(k), which lets the
/// server recognize k without learning it. Scheme 2 appends the pair to
/// the keyword's list S(w); Scheme 3 files the ciphertext under the tag,
/// which is its address.

/// Seals `ids` (canonical) under chain key `key`.
Result<S2Segment> SealSegment(BytesView key, const index::DocIdList& ids,
                              RandomSource& rng);

/// Decrypts a segment ciphertext under chain key `key` and appends its ids
/// to `ids`, unsorted. A walk opens all its segments this way, then calls
/// CanonicalizeTail once.
Status OpenSegmentInto(BytesView key, BytesView ciphertext,
                       index::DocIdList& ids);

/// Sorts the ids appended past `canonical_prefix` and merges them into
/// the canonical prefix, dropping duplicates: one sort per walk instead of
/// one merge per opened segment.
void CanonicalizeTail(index::DocIdList& ids, size_t canonical_prefix);

/// Work done by WalkAndOpenSegments, counted as it goes.
struct SegmentWalk {
  uint64_t chain_steps = 0;
  uint64_t segments_opened = 0;
};

/// Scheme 2's search loop (paper Fig. 4): walks the chain forward from
/// `trapdoor`, newest segment first, over `segments[start..]`, finding
/// each segment's key by its tag within `max_steps` steps and merging the
/// opened ids into the canonical list `ids`. Newer segments use deeper
/// keys, so they appear earlier on the walk. A segment stored under an
/// older key than its predecessor (a rolled-back client) is found by
/// restarting the walk from `trapdoor`, so any key at or below the
/// trapdoor depth stays reachable. The server runs it on a search, the
/// client on Reinitialize.
Status WalkAndOpenSegments(const Bytes& trapdoor,
                           const std::vector<S2Segment>& segments,
                           size_t start, uint32_t max_steps,
                           index::DocIdList& ids, SegmentWalk& walk);

}  // namespace sse::core

#endif  // SSE_CORE_SEGMENT_H_
