#ifndef SSE_CORE_SCHEME2_CLIENT_H_
#define SSE_CORE_SCHEME2_CLIENT_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sse/core/client_updates.h"
#include "sse/core/options.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/types.h"
#include "sse/crypto/hash_chain.h"
#include "sse/crypto/keys.h"
#include "sse/crypto/prf.h"
#include "sse/net/channel.h"

namespace sse::core {

/// The client of Scheme 2 (paper §5.5–5.6).
///
/// Per keyword, update j is encrypted under the chain key
/// `k_j(w) = f^{l-ctr}(seed_w)`; the client walks its per-keyword chain
/// backwards as the global counter `ctr` grows. Client state is tiny: the
/// counter, a searched-since-last-update bit (Optimization 2), the chain
/// epoch, and the set of used document ids.
///
/// Substitution note: the paper seeds the chain with the literal string
/// `w ‖ k_w`; we derive `seed_w = PRF_{k_w}("s2.chain" ‖ epoch ‖ token_w)`
/// instead. This is equivalent under the PRF assumption and lets the
/// re-initialization procedure (which only sees tokens, not keywords)
/// rebuild every chain.
class Scheme2Client : public SseClientInterface {
 public:
  static Result<std::unique_ptr<Scheme2Client>> Create(
      const crypto::MasterKey& key, const SchemeOptions& options,
      net::Channel* channel, RandomSource* rng);

  Status Store(const std::vector<Document>& docs) override;
  Result<SearchOutcome> Search(std::string_view keyword) override;
  /// With SchemeOptions::batch_ops, runs all K one-round searches as one
  /// pipelined MultiCall round instead of K sequential round trips.
  Result<std::vector<SearchOutcome>> MultiSearch(
      const std::vector<std::string>& keywords) override;
  Status FakeUpdate(const std::vector<std::string>& keywords) override;
  std::string name() const override { return "scheme2"; }

  /// Trapdoor(w) = (f_{k_w}(w), f^{l-ctr}(seed_w)).
  struct Trapdoor {
    Bytes token;
    Bytes chain_element;
  };
  Result<Trapdoor> MakeTrapdoor(std::string_view keyword) const;

  /// Current global counter; at most chain_length counted updates fit in
  /// one epoch.
  uint32_t counter() const { return ctr_; }
  uint32_t epoch() const { return epoch_; }

  /// Remaining counted updates before the chain is exhausted.
  uint32_t remaining_updates() const { return options_.chain_length - ctr_; }

  /// Rebuilds the whole index under a fresh chain epoch (paper
  /// Optimization 2 discussion: "the whole process should be repeated again
  /// with a different seed"). Downloads every keyword's segments, decrypts
  /// and merges them locally, resets the counter, and replaces the server
  /// index with one fresh segment per keyword. Costs two rounds plus the
  /// full index in bandwidth — which is why Optimization 2 tries to delay it.
  Status Reinitialize();

  /// Diagnostic counters from the last search reply.
  uint64_t last_search_chain_steps() const { return last_chain_steps_; }
  uint64_t last_search_segments_decrypted() const { return last_segments_; }

  /// Reconnects the client to a new channel (e.g. after a server restart).
  /// Client-side protocol state (counter, epoch, used ids) is preserved.
  void set_channel(net::Channel* channel) { channel_ = channel; }

  /// Serializes the client's protocol state — counter, epoch,
  /// searched-since-update flag and the used document ids. A client MUST
  /// persist this between sessions: restoring an older counter would reuse
  /// chain elements the server has already seen.
  Bytes SerializeState() const override;
  Status RestoreState(BytesView data) override;

 private:
  Scheme2Client(crypto::Prf prf, DataCipher data,
                const SchemeOptions& options, net::Channel* channel,
                RandomSource* rng);

  Result<Bytes> Token(std::string_view keyword) const;
  /// A cursor over `token`'s chain in `epoch`, seeded
  /// PRF_{k_w}("s2.chain" ‖ epoch ‖ token).
  Result<crypto::ChainCursor> NewCursor(BytesView token, uint32_t epoch) const;
  /// The key k_{ctr} of `token`'s chain in the current epoch.
  Result<Bytes> ChainKey(BytesView token, uint32_t ctr) const;

  /// Advances the counter per the Optimization 2 policy and returns the
  /// value updates in this batch must use. Fails with RESOURCE_EXHAUSTED
  /// when the chain is spent.
  Result<uint32_t> NextUpdateCounter();

  /// With SchemeOptions::batch_ops the round is K per-keyword ops through
  /// MultiCall; otherwise one monolithic message. The counter policy is
  /// identical either way: the whole run shares one update counter.
  Status RunUpdateProtocol(const std::vector<KeywordUpdate>& updates,
                           const std::vector<Document>& documents);

  /// Decodes an S2SearchResult into ids + decrypted documents, updating
  /// the diagnostic counters.
  Result<SearchOutcome> ParseSearchResult(const net::Message& msg);

  crypto::Prf prf_;
  DataCipher data_;
  SchemeOptions options_;
  net::Channel* channel_;
  RandomSource* rng_;

  /// The current epoch's chain cursors, one per keyword used so far (key:
  /// hex token).
  mutable std::map<std::string, crypto::ChainCursor> cursors_;

  uint32_t ctr_ = 0;
  uint32_t epoch_ = 0;
  bool searched_since_update_ = true;  // first update always increments
  UsedIds used_ids_;
  uint64_t last_chain_steps_ = 0;
  uint64_t last_segments_ = 0;
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME2_CLIENT_H_
