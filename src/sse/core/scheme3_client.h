#ifndef SSE_CORE_SCHEME3_CLIENT_H_
#define SSE_CORE_SCHEME3_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sse/core/client_updates.h"
#include "sse/core/options.h"
#include "sse/core/scheme3_messages.h"
#include "sse/core/types.h"
#include "sse/crypto/hash_chain.h"
#include "sse/crypto/keys.h"
#include "sse/crypto/prf.h"
#include "sse/net/channel.h"

namespace sse::core {

/// The client of Scheme 3, the forward-private dynamic scheme (after
/// Etemad–Küpçü, "Efficient Dynamic Searchable Encryption with Forward
/// Privacy").
///
/// Scheme 2 keys all keywords off ONE global counter and sends the static
/// keyword token with every update, so the server links every update of a
/// keyword the moment it arrives. Scheme 3 gives each keyword its own
/// counter c_w and derives update j's key k_j = f^{l-j}(seed_w) from a
/// per-keyword chain; the update ships only (f'(k_j), E_{k_j}(delta)) —
/// an address and a ciphertext that are fresh pseudo-random values per
/// update. A search releases (k_{c_w}, c_w); since f only walks toward
/// older keys, the server can open everything stored so far but cannot
/// recognize (let alone decrypt) any update made afterwards.
///
/// The price is client state linear in the number of distinct keywords
/// (the counter map — the standard forward-privacy trade-off) and a
/// search cost of c_w chain steps server-side.
class Scheme3Client : public SseClientInterface {
 public:
  static Result<std::unique_ptr<Scheme3Client>> Create(
      const crypto::MasterKey& key, const SchemeOptions& options,
      net::Channel* channel, RandomSource* rng);

  Status Store(const std::vector<Document>& docs) override;
  Result<SearchOutcome> Search(std::string_view keyword) override;
  /// With SchemeOptions::batch_ops, runs all K one-round searches as one
  /// pipelined MultiCall round instead of K sequential round trips.
  Result<std::vector<SearchOutcome>> MultiSearch(
      const std::vector<std::string>& keywords) override;
  Status FakeUpdate(const std::vector<std::string>& keywords) override;
  std::string name() const override { return "scheme3"; }

  /// Trapdoor(w) = (k_{c_w}, c_w). Fails with FAILED_PRECONDITION before
  /// the keyword's first update (there is nothing searchable to release).
  struct Trapdoor {
    Bytes chain_element;
    uint32_t counter = 0;
  };
  Result<Trapdoor> MakeTrapdoor(std::string_view keyword) const;

  /// The keyword's update counter (0 = never updated). At most
  /// chain_length counted updates fit per keyword.
  Result<uint32_t> counter(std::string_view keyword) const;

  /// Diagnostic counters from the last search reply.
  uint64_t last_search_chain_steps() const { return last_chain_steps_; }
  uint64_t last_search_entries_decrypted() const { return last_entries_; }

  /// Reconnects the client to a new channel (e.g. after a server restart).
  /// Client-side protocol state (counters, used ids) is preserved.
  void set_channel(net::Channel* channel) { channel_ = channel; }

  /// Serializes the per-keyword counters and used document ids. A client
  /// MUST persist this between sessions: restoring an older counter would
  /// file a different delta under an address the server already holds,
  /// silently shadowing the earlier posting.
  Bytes SerializeState() const override;
  Status RestoreState(BytesView data) override;

 private:
  Scheme3Client(crypto::Prf prf, DataCipher data,
                const SchemeOptions& options, net::Channel* channel,
                RandomSource* rng);

  /// Per-keyword protocol state, keyed in `states_` by the hex token. The
  /// chain cursor is created on the keyword's first key derivation.
  struct KeywordState {
    Bytes token;
    uint32_t ctr = 0;
    std::optional<crypto::ChainCursor> cursor;
  };

  Result<Bytes> Token(std::string_view keyword) const;
  /// Looks up (creating if absent) the state slot for `token`.
  KeywordState& StateFor(const Bytes& token) const;
  /// The key k_{ctr} of the keyword's chain, seeded
  /// PRF_{k_w}("s3.chain" ‖ token).
  Result<Bytes> ChainKey(KeywordState& state, uint32_t ctr) const;

  /// One protocol round: each pending keyword consumes its next counter
  /// (burned even if the round later fails — an ambiguous failure may
  /// have applied server-side, and reusing the counter for different
  /// content would shadow it). With SchemeOptions::batch_ops the round is
  /// K per-keyword ops through MultiCall; otherwise one monolithic
  /// message.
  Status RunUpdateProtocol(const std::vector<KeywordUpdate>& updates,
                           const std::vector<Document>& documents);

  Result<SearchOutcome> ParseSearchResult(const net::Message& msg);

  crypto::Prf prf_;
  DataCipher data_;
  SchemeOptions options_;
  net::Channel* channel_;
  RandomSource* rng_;

  mutable std::map<std::string, KeywordState> states_;  // key: hex token
  UsedIds used_ids_;
  uint64_t last_chain_steps_ = 0;
  uint64_t last_entries_ = 0;
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME3_CLIENT_H_
