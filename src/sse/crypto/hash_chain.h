#ifndef SSE_CRYPTO_HASH_CHAIN_H_
#define SSE_CRYPTO_HASH_CHAIN_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sse/crypto/sha256.h"
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

  /// One application of the chain step function f. Every chain element
  /// past the seed is such a digest.
  static Result<Sha256Digest> Step(BytesView element);

  /// The public tag f'(element).
  static Result<Sha256Digest> Tag(BytesView element);

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
  /// the server-side search loop of Scheme 2 (Fig. 4); it allocates only
  /// the matching element, never per position.
  struct WalkResult {
    Bytes element;
    uint32_t steps;
  };
  static Result<WalkResult> WalkForwardToTag(BytesView start,
                                             BytesView target_tag,
                                             uint32_t max_steps);

 private:
  friend class ChainCursor;
  HashChain(Bytes seed, uint32_t length)
      : seed_(std::move(seed)), length_(length) {}
  Bytes seed_;
  uint32_t length_;
};

/// The seed holder's view of one chain: derives the key at a counter
/// (HashChain::KeyForCounter) in amortized O(log l) steps of f.
///
/// The cursor keeps pebbles, after Jakobsson's fractal hash-chain
/// traversal: a stack of (index, element) pairs in ascending element
/// index, at most about log2 l of them. Counters only grow, and a larger
/// counter is a smaller index t = l - ctr, toward the seed. KeyAt pops
/// every pebble past t and answers from the top one if it is t. Otherwise
/// it walks forward from the top pebble (or the seed), dropping a pebble
/// each time the distance left to t halves, and pushes t. Ascending
/// counters 1..l then cost (l/2)·log2 l steps in all. A smaller counter
/// than the last one, which no client asks for in steady state, walks
/// forward from the top pebble and pushes nothing, so the stack stays
/// bounded.
///
/// Pebbles are a cache, not state: a cursor rebuilt from the seed (for
/// example after a client state restore) answers every counter the same,
/// paying one walk of l - ctr steps on first use. Both Scheme 2 (one
/// cursor per keyword per epoch) and Scheme 3 (one per keyword) derive
/// every chain key here.
class ChainCursor {
 public:
  static Result<ChainCursor> Create(BytesView seed, uint32_t length);

  /// The key at counter `ctr`, i.e. element `l - ctr`. Fails with
  /// RESOURCE_EXHAUSTED unless 1 <= ctr <= l.
  Result<Bytes> KeyAt(uint32_t ctr);

  /// Applications of f made so far, and the pebbles held now.
  uint64_t steps() const { return steps_; }
  size_t pebble_count() const { return pebbles_.size(); }

 private:
  struct Pebble {
    uint32_t index;  // >= 1: the seed (index 0) is never pebbled
    Sha256Digest element;
  };

  explicit ChainCursor(HashChain chain) : chain_(std::move(chain)) {}

  /// Walks from `from` (element `from_index`) to element `target`. With
  /// `pebble` set it pushes a pebble each time the distance left halves,
  /// then one for `target`.
  Result<Sha256Digest> WalkTo(BytesView from, uint32_t from_index,
                              uint32_t target, bool pebble);

  HashChain chain_;
  std::vector<Pebble> pebbles_;
  uint64_t steps_ = 0;
};

}  // namespace sse::crypto

#endif  // SSE_CRYPTO_HASH_CHAIN_H_
