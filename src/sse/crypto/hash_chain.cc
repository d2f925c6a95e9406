#include "sse/crypto/hash_chain.h"

#include "sse/crypto/sha256.h"

namespace sse::crypto {

namespace {
const char kStepLabel[] = "sse.chain.step";
const char kTagLabel[] = "sse.chain.tag";
}  // namespace

Result<HashChain> HashChain::Create(BytesView seed, uint32_t length) {
  if (seed.size() < 16) {
    return Status::InvalidArgument("hash chain seed must be >= 16 bytes");
  }
  if (length == 0) {
    return Status::InvalidArgument("hash chain length must be > 0");
  }
  return HashChain(ToBytes(seed), length);
}

Result<Bytes> HashChain::Step(BytesView element) {
  return Sha256Concat(StringToBytes(kStepLabel), element);
}

Result<Bytes> HashChain::Tag(BytesView element) {
  return Sha256Concat(StringToBytes(kTagLabel), element);
}

Result<Bytes> HashChain::ElementAt(uint32_t index) const {
  if (index >= length_) {
    return Status::OutOfRange("chain index " + std::to_string(index) +
                              " >= length " + std::to_string(length_));
  }
  Bytes element = seed_;
  for (uint32_t i = 0; i < index; ++i) {
    SSE_ASSIGN_OR_RETURN(element, Step(element));
  }
  return element;
}

Result<Bytes> HashChain::KeyForCounter(uint32_t ctr) const {
  if (ctr == 0) {
    return Status::InvalidArgument("chain counter starts at 1");
  }
  if (ctr > length_) {
    return Status::ResourceExhausted(
        "hash chain exhausted: counter " + std::to_string(ctr) +
        " exceeds chain length " + std::to_string(length_) +
        "; re-initialize the index with a fresh seed");
  }
  // ctr = 1 -> element l-1 (deepest usable), ctr = l -> element 0 (seed).
  return ElementAt(length_ - ctr);
}

Result<HashChain::WalkResult> HashChain::WalkForwardToTag(BytesView start,
                                                          BytesView target_tag,
                                                          uint32_t max_steps) {
  Bytes element = ToBytes(start);
  for (uint32_t steps = 0; steps <= max_steps; ++steps) {
    Bytes tag;
    SSE_ASSIGN_OR_RETURN(tag, Tag(element));
    if (ConstantTimeEqual(tag, target_tag)) {
      return WalkResult{std::move(element), steps};
    }
    if (steps < max_steps) {
      SSE_ASSIGN_OR_RETURN(element, Step(element));
    }
  }
  return Status::NotFound("no chain element matched the tag within " +
                          std::to_string(max_steps) + " steps");
}

Result<ChainCursor> ChainCursor::Create(BytesView seed, uint32_t length) {
  Result<HashChain> chain = HashChain::Create(seed, length);
  if (!chain.ok()) return chain.status();
  return ChainCursor(std::move(chain).value());
}

Result<Bytes> ChainCursor::KeyAt(uint32_t ctr) {
  if (ctr == 0 || ctr > chain_.length()) {
    return Status::ResourceExhausted(
        "chain counter " + std::to_string(ctr) + " outside [1, " +
        std::to_string(chain_.length()) + "]");
  }
  if (memo_ctr_ != 0) {
    if (ctr == memo_ctr_) return memo_key_;
    if (ctr < memo_ctr_) {
      Bytes key = memo_key_;
      for (uint32_t c = memo_ctr_; c > ctr; --c) {
        SSE_ASSIGN_OR_RETURN(key, HashChain::Step(key));
      }
      return key;
    }
  }
  Bytes key;
  SSE_ASSIGN_OR_RETURN(key, chain_.KeyForCounter(ctr));
  memo_ctr_ = ctr;
  memo_key_ = key;
  return key;
}

}  // namespace sse::crypto
