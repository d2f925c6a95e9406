#include "sse/crypto/hash_chain.h"

#include "sse/crypto/kernel.h"

namespace sse::crypto {

Result<HashChain> HashChain::Create(BytesView seed, uint32_t length) {
  if (seed.size() < 16) {
    return Status::InvalidArgument("hash chain seed must be >= 16 bytes");
  }
  if (length == 0) {
    return Status::InvalidArgument("hash chain length must be > 0");
  }
  return HashChain(ToBytes(seed), length);
}

Result<Sha256Digest> HashChain::Step(BytesView element) {
  Sha256Digest next;
  SSE_RETURN_IF_ERROR(kernel::ChainStep(element, next));
  return next;
}

Result<Sha256Digest> HashChain::Tag(BytesView element) {
  Sha256Digest tag;
  SSE_RETURN_IF_ERROR(kernel::ChainTag(element, tag));
  return tag;
}

Result<Bytes> HashChain::ElementAt(uint32_t index) const {
  if (index >= length_) {
    return Status::OutOfRange("chain index " + std::to_string(index) +
                              " >= length " + std::to_string(length_));
  }
  if (index == 0) return seed_;
  Sha256Digest element;
  BytesView position = seed_;
  for (uint32_t i = 0; i < index; ++i) {
    SSE_RETURN_IF_ERROR(kernel::ChainStep(position, element));
    position = element;
  }
  return ToBytes(element);
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
  Sha256Digest element;
  Sha256Digest tag;
  BytesView position = start;
  for (uint32_t steps = 0; steps <= max_steps; ++steps) {
    SSE_RETURN_IF_ERROR(kernel::ChainTag(position, tag));
    if (ConstantTimeEqual(tag, target_tag)) {
      return WalkResult{ToBytes(position), steps};
    }
    if (steps < max_steps) {
      SSE_RETURN_IF_ERROR(kernel::ChainStep(position, element));
      position = element;
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
  const uint32_t target = chain_.length() - ctr;
  Sha256Digest key;
  if (!pebbles_.empty() && target > pebbles_.back().index) {
    // A smaller counter than the newest one asked for: walk on from the
    // top pebble and leave the stack as it is.
    SSE_ASSIGN_OR_RETURN(key, WalkTo(pebbles_.back().element,
                                     pebbles_.back().index, target,
                                     /*pebble=*/false));
    return ToBytes(key);
  }
  while (!pebbles_.empty() && pebbles_.back().index > target) {
    pebbles_.pop_back();
  }
  if (target == 0) return chain_.seed_;
  if (pebbles_.empty()) {
    SSE_ASSIGN_OR_RETURN(key, WalkTo(chain_.seed_, 0, target,
                                     /*pebble=*/true));
  } else if (pebbles_.back().index == target) {
    return ToBytes(pebbles_.back().element);
  } else {
    SSE_ASSIGN_OR_RETURN(key, WalkTo(pebbles_.back().element,
                                     pebbles_.back().index, target,
                                     /*pebble=*/true));
  }
  return ToBytes(key);
}

Result<Sha256Digest> ChainCursor::WalkTo(BytesView from, uint32_t from_index,
                                         uint32_t target, bool pebble) {
  // `from` may view a pebble; it is read by the first step, before any
  // push can move the stack, and views `element` from then on.
  Sha256Digest element;
  uint32_t mark = (target - from_index) / 2;  // distance of the next pebble
  for (uint32_t index = from_index; index < target;) {
    SSE_RETURN_IF_ERROR(kernel::ChainStep(from, element));
    from = element;
    ++index;
    ++steps_;
    if (pebble && mark > 0 && target - index == mark) {
      pebbles_.push_back(Pebble{index, element});
      mark /= 2;
    }
  }
  if (pebble) pebbles_.push_back(Pebble{target, element});
  return element;
}

}  // namespace sse::crypto
