#ifndef SSE_CORE_SCHEME1_CLIENT_H_
#define SSE_CORE_SCHEME1_CLIENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sse/core/client_updates.h"
#include "sse/core/options.h"
#include "sse/core/types.h"
#include "sse/crypto/elgamal.h"
#include "sse/crypto/keys.h"
#include "sse/crypto/prf.h"
#include "sse/net/channel.h"

namespace sse::core {

/// The client of Scheme 1 (paper §5.2).
///
/// Holds the master key `K = (k_m, k_w)` and drives the two-round update
/// (Fig. 1) and two-round search (Fig. 2) protocols over a channel. The
/// client is nearly stateless: everything it needs per keyword (the nonce
/// `r`) is fetched from the server as `F(r)` and decrypted with the ElGamal
/// secret derived from `k_w`. Locally it only remembers which document ids
/// were already used, because the XOR-delta update would silently *remove*
/// an id that is added twice.
class Scheme1Client : public SseClientInterface {
 public:
  /// `channel` must outlive the client. `rng` supplies nonces and AEAD IVs.
  static Result<std::unique_ptr<Scheme1Client>> Create(
      const crypto::MasterKey& key, const SchemeOptions& options,
      net::Channel* channel, RandomSource* rng);

  Status Store(const std::vector<Document>& docs) override;
  Result<SearchOutcome> Search(std::string_view keyword) override;
  /// With SchemeOptions::batch_ops, runs all K two-round searches as two
  /// pipelined MultiCall rounds (round 2 only for found keywords) instead
  /// of 2·K sequential round trips. Without it, falls back to the loop.
  Result<std::vector<SearchOutcome>> MultiSearch(
      const std::vector<std::string>& keywords) override;
  Status FakeUpdate(const std::vector<std::string>& keywords) override;
  std::string name() const override { return "scheme1"; }

  /// Toggles membership of existing documents: removes each id that
  /// currently matches `keyword`-style postings. Exposed as the library's
  /// document-removal primitive (XOR makes add and remove the same
  /// operation; the paper's U(w) "alters the content of the documents").
  Status RemoveDocument(uint64_t id, const std::vector<std::string>& keywords);

  /// Trapdoor(w): the search token f_{k_w}(w). Public for tests and the
  /// security harness.
  Result<Bytes> Trapdoor(std::string_view keyword) const;

  /// Reconnects the client to a new channel (e.g. after a server restart).
  void set_channel(net::Channel* channel) { channel_ = channel; }

  /// Serializes the client's only local state: the set of used document
  /// ids (guarding the XOR toggle against double-adds). Persist between
  /// sessions.
  Bytes SerializeState() const override;
  Status RestoreState(BytesView data) override;

 private:
  Scheme1Client(crypto::Prf prf, crypto::ElGamal elgamal, DataCipher data,
                const SchemeOptions& options, net::Channel* channel,
                RandomSource* rng);

  /// Runs the two-round Fig. 1 protocol for `updates` (each entry's ids
  /// are the positions to toggle in I(w)) plus `documents`. With
  /// SchemeOptions::batch_ops each round is K per-keyword ops through the
  /// channel's MultiCall (batched + pipelined over a RetryingChannel);
  /// otherwise each round is one monolithic message.
  Status RunUpdateProtocol(const std::vector<KeywordUpdate>& updates,
                           const std::vector<Document>& documents);

  /// Decodes an S1SearchResult message into ids + decrypted documents.
  Result<SearchOutcome> ParseSearchResult(const net::Message& msg);

  crypto::Prf prf_;
  crypto::ElGamal elgamal_;
  DataCipher data_;
  SchemeOptions options_;
  net::Channel* channel_;
  RandomSource* rng_;
  UsedIds used_ids_;
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME1_CLIENT_H_
