#include "sse/core/segment.h"

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
  SSE_ASSIGN_OR_RETURN(segment.tag, crypto::HashChain::Tag(key));
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
  ids = index::MergeIdLists(ids, segment_ids);
  return Status::OK();
}

Status WalkAndOpenSegments(const Bytes& trapdoor,
                           const std::vector<S2Segment>& segments,
                           size_t start, uint32_t max_steps,
                           index::DocIdList& ids, SegmentWalk& walk) {
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
  return Status::OK();
}

}  // namespace sse::core
