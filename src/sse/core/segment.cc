#include "sse/core/segment.h"

#include <algorithm>

#include "sse/crypto/hash_chain.h"
#include "sse/crypto/stream_cipher.h"

namespace sse::core {

Result<S2Segment> SealSegment(BytesView key, const index::DocIdList& ids,
                              RandomSource& rng) {
  Bytes plain;
  SSE_ASSIGN_OR_RETURN(plain, index::EncodeIdList(ids));
  Result<crypto::StreamCipher> cipher = crypto::StreamCipher::Create(key);
  if (!cipher.ok()) return cipher.status();
  S2Segment segment;
  SSE_ASSIGN_OR_RETURN(segment.ciphertext, cipher->Encrypt(plain, rng));
  Result<crypto::Sha256Digest> tag = crypto::HashChain::Tag(key);
  if (!tag.ok()) return tag.status();
  segment.tag = ToBytes(*tag);
  return segment;
}

Status OpenSegmentInto(BytesView key, BytesView ciphertext,
                       index::DocIdList& ids) {
  Result<crypto::StreamCipher> cipher = crypto::StreamCipher::Create(key);
  if (!cipher.ok()) return cipher.status();
  Bytes plain;
  SSE_ASSIGN_OR_RETURN(plain, cipher->Decrypt(ciphertext));
  index::DocIdList segment_ids;
  SSE_ASSIGN_OR_RETURN(segment_ids, index::DecodeIdList(plain));
  ids.insert(ids.end(), segment_ids.begin(), segment_ids.end());
  return Status::OK();
}

void CanonicalizeTail(index::DocIdList& ids, size_t canonical_prefix) {
  const auto tail = ids.begin() + static_cast<ptrdiff_t>(canonical_prefix);
  std::sort(tail, ids.end());
  std::inplace_merge(ids.begin(), tail, ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

Status WalkAndOpenSegments(const Bytes& trapdoor,
                           const std::vector<S2Segment>& segments,
                           size_t start, uint32_t max_steps,
                           index::DocIdList& ids, SegmentWalk& walk) {
  const size_t canonical_prefix = ids.size();
  Bytes position = trapdoor;
  for (size_t j = segments.size(); j-- > start;) {
    const S2Segment& seg = segments[j];
    Result<crypto::HashChain::WalkResult> found =
        crypto::HashChain::WalkForwardToTag(position, seg.tag, max_steps);
    if (!found.ok() && found.status().code() == StatusCode::kNotFound &&
        position != trapdoor) {
      found = crypto::HashChain::WalkForwardToTag(trapdoor, seg.tag,
                                                  max_steps);
    }
    if (!found.ok()) return found.status();
    walk.chain_steps += found->steps;
    position = std::move(found->element);
    SSE_RETURN_IF_ERROR(OpenSegmentInto(position, seg.ciphertext, ids));
    ++walk.segments_opened;
  }
  CanonicalizeTail(ids, canonical_prefix);
  return Status::OK();
}

}  // namespace sse::core
