#ifndef SSE_CORE_TYPES_H_
#define SSE_CORE_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sse/core/wire_common.h"
#include "sse/crypto/aead.h"
#include "sse/crypto/keys.h"
#include "sse/util/bytes.h"
#include "sse/util/random.h"
#include "sse/util/result.h"

namespace sse::core {

/// A document as the paper models it: `D_i = (M_i, W_i)` — a data item
/// (opaque content bytes) plus a metadata item (the set of keywords), bound
/// to a client-chosen exclusive identifier `i`.
struct Document {
  uint64_t id = 0;
  Bytes content;                      // M_i (plaintext on the client side)
  std::vector<std::string> keywords;  // W_i

  static Document Make(uint64_t id, std::string_view content,
                       std::vector<std::string> keywords);
};

/// What a search returns to the client: the matching identifiers and the
/// decrypted data items.
struct SearchOutcome {
  std::vector<uint64_t> ids;  // I(w), ascending
  /// (id, plaintext) for every returned document that decrypted cleanly.
  std::vector<std::pair<uint64_t, Bytes>> documents;
};

/// The client half of any searchable-encryption system in this library.
/// Both paper schemes and all three baselines implement it, so tests and
/// benches drive every system through one interface.
class SseClientInterface {
 public:
  virtual ~SseClientInterface() = default;

  /// Storage/MetadataStorage: adds `docs` to the encrypted database in one
  /// batch (one protocol run). Ids must not have been stored before.
  virtual Status Store(const std::vector<Document>& docs) = 0;

  /// Trapdoor + Search: retrieves every document whose metadata contains
  /// `keyword`.
  virtual Result<SearchOutcome> Search(std::string_view keyword) = 0;

  /// Searches many keywords in one protocol run, returning outcomes
  /// aligned with `keywords`. The default loops Search sequentially (K
  /// round trips); scheme clients with SchemeOptions::batch_ops pipeline
  /// all K searches into ~one batched frame per protocol round. Any
  /// per-keyword failure fails the whole call.
  virtual Result<std::vector<SearchOutcome>> MultiSearch(
      const std::vector<std::string>& keywords);

  /// A "fake update" (§5.7): runs the update protocol for `keywords`
  /// without changing any posting, hiding real update sizes from the
  /// server. Baselines that cannot express this return UNIMPLEMENTED.
  virtual Status FakeUpdate(const std::vector<std::string>& keywords) {
    (void)keywords;
    return Status::Unimplemented("fake updates not supported by this scheme");
  }

  /// Human-readable system name, e.g. "scheme1".
  virtual std::string name() const = 0;

  /// Serializes the client's protocol state (counters, epochs, used ids —
  /// whatever the scheme must persist across sessions). Stateless clients
  /// return an empty blob. Deployments MUST persist this with the same
  /// care as server state: for the paper schemes, restoring a stale copy
  /// reuses chain elements or identifiers the server has already seen.
  virtual Bytes SerializeState() const { return {}; }

  /// Restores state produced by SerializeState. The default accepts only
  /// an empty blob, so a stateless client loudly rejects a stateful
  /// scheme's snapshot instead of silently dropping it.
  virtual Status RestoreState(BytesView data) {
    if (!data.empty()) {
      return Status::InvalidArgument(
          "this scheme's client keeps no protocol state");
    }
    return Status::OK();
  }
};

/// 8-byte little-endian encoding of a document id, used as AEAD associated
/// data so ciphertexts cannot be transplanted between identifiers.
Bytes EncodeDocId(uint64_t id);

/// The data-item cipher every client shares: the paper's `E_{k_m}(M_i)` is
/// AEAD under a key derived from the master key's data key, with
/// `EncodeDocId(i)` as associated data.
class DataCipher {
 public:
  static Result<DataCipher> Create(const crypto::MasterKey& key);

  /// Encrypts one document's content.
  Result<Bytes> Seal(const Document& doc, RandomSource& rng) const;
  /// Encrypts every document, in order.
  Result<std::vector<WireDocument>> SealAll(const std::vector<Document>& docs,
                                            RandomSource& rng) const;
  /// Decrypts every wire document into `outcome.documents`; fails with
  /// CRYPTO_ERROR on the first one that does not authenticate.
  Status OpenAll(const std::vector<WireDocument>& docs,
                 SearchOutcome& outcome) const;

 private:
  explicit DataCipher(crypto::Aead aead) : aead_(std::move(aead)) {}
  crypto::Aead aead_;
};

}  // namespace sse::core

#endif  // SSE_CORE_TYPES_H_
