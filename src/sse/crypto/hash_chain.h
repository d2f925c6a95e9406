#ifndef SSE_CRYPTO_HASH_CHAIN_H_
#define SSE_CRYPTO_HASH_CHAIN_H_

#include <cstdint>
#include <optional>
#include <utility>

#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::crypto {

/// Lamport-style pseudo-random chain (paper §5.4, citing Lamport [17]).
///
/// A chain of length `l` over seed `a` is `e_0 = a`, `e_i = f(e_{i-1})`.
/// Scheme 2 keys the j-th update of keyword `w` with `k_j = e_{l - ctr}`,
/// walking the chain *backwards* as the counter grows. Only the seed holder
/// (the client) can walk backwards; anyone holding `e_i` can walk forwards
/// to `e_{i+1}, e_{i+2}, ...` — which is exactly what lets the server, given
/// the newest key in a trapdoor, recover every *older* segment key but no
/// newer one.
///
/// Instantiations: f = SHA-256("sse.chain.step" ‖ ·) and the public tag
/// function f' = SHA-256("sse.chain.tag" ‖ ·) used to recognize a chain
/// element without revealing it.
///
/// KeyForCounter is the unmemoized reference derivation; clients derive
/// keys through a ChainCursor instead.
class HashChain {
 public:
  /// Creates a chain over `seed` with `length` usable elements
  /// (indices 0 .. length-1, where index i means f applied i times).
  static Result<HashChain> Create(BytesView seed, uint32_t length);

  /// One application of the chain step function f.
  static Result<Bytes> Step(BytesView element);

  /// The public tag f'(element).
  static Result<Bytes> Tag(BytesView element);

  /// Element at `index` (f applied `index` times to the seed). O(index).
  Result<Bytes> ElementAt(uint32_t index) const;

  /// The key the client uses at global counter `ctr`: element `l - ctr`.
  /// Fails with RESOURCE_EXHAUSTED once `ctr > l` — the chain is spent and
  /// the scheme must re-initialize (paper Optimization 2 discussion).
  Result<Bytes> KeyForCounter(uint32_t ctr) const;

  uint32_t length() const { return length_; }

  /// Walks forward from `start` at most `max_steps` applications of f,
  /// looking for an element whose tag equals `target_tag`. Returns the
  /// matching element and the number of steps taken, or NOT_FOUND. This is
  /// the server-side search loop of Scheme 2 (Fig. 4).
  struct WalkResult {
    Bytes element;
    uint32_t steps;
  };
  static Result<WalkResult> WalkForwardToTag(BytesView start,
                                             BytesView target_tag,
                                             uint32_t max_steps);

 private:
  HashChain(Bytes seed, uint32_t length)
      : seed_(std::move(seed)), length_(length) {}
  Bytes seed_;
  uint32_t length_;
};

/// The seed holder's view of one chain: derives the key at a counter
/// (HashChain::KeyForCounter) and memoizes the last key it derived.
///
/// Counters only grow, so the memo turns the common requests into cheap
/// ones. The same counter is an exact hit. A smaller counter lies forward
/// of the memo (more applications of f) and costs one step per counter of
/// difference. A larger one lies toward the seed and is recomputed from
/// it, which then becomes the memo. Both Scheme 2 (one cursor per keyword
/// per epoch) and Scheme 3 (one per keyword) derive every chain key here.
class ChainCursor {
 public:
  static Result<ChainCursor> Create(BytesView seed, uint32_t length);

  /// The key at counter `ctr`, i.e. element `l - ctr`. Fails with
  /// RESOURCE_EXHAUSTED unless 1 <= ctr <= l.
  Result<Bytes> KeyAt(uint32_t ctr);

 private:
  explicit ChainCursor(HashChain chain) : chain_(std::move(chain)) {}
  HashChain chain_;
  uint32_t memo_ctr_ = 0;  // 0 = nothing memoized yet
  Bytes memo_key_;
};

}  // namespace sse::crypto

#endif  // SSE_CRYPTO_HASH_CHAIN_H_
