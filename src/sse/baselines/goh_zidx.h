#ifndef SSE_BASELINES_GOH_ZIDX_H_
#define SSE_BASELINES_GOH_ZIDX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sse/baselines/search_reply.h"
#include "sse/core/persistable.h"
#include "sse/core/types.h"
#include "sse/core/wire_common.h"
#include "sse/crypto/keys.h"
#include "sse/crypto/prf.h"
#include "sse/net/channel.h"
#include "sse/util/bitvec.h"

namespace sse::baselines {

/// Baseline: Goh's Z-IDX secure index (ePrint 2003/216) — one Bloom filter
/// per document.
///
/// The client derives `r` trapdoor subkeys per keyword, `y_i = PRF(k_i, w)`;
/// the codeword for document `id` is `x_i = PRF(y_i, id)`, and each `x_i`
/// sets one bit (`x_i mod m`) in that document's m-bit filter. A search
/// sends `(y_1..y_r)`; the server recomputes the per-document codewords and
/// answers "match" when all r bits are set. Updates are O(1) per document,
/// but every search touches *every* document: the second O(n) comparator.
///
/// Parameters (m, r) trade index size against Bloom false positives, which
/// this scheme genuinely exhibits — our tests measure the rate.
struct GohOptions {
  size_t bloom_bits = 4096;  // m, per document
  size_t num_keys = 8;       // r
};

inline constexpr uint16_t kMsgGohStore = net::kMsgRangeBaseline + 11;
inline constexpr uint16_t kMsgGohStoreAck = net::kMsgRangeBaseline + 12;
inline constexpr uint16_t kMsgGohSearch = net::kMsgRangeBaseline + 13;
inline constexpr uint16_t kMsgGohSearchResult = net::kMsgRangeBaseline + 14;

/// Search: the trapdoor's r subkeys.
struct GohSearch {
  std::vector<Bytes> subkeys;

  SSE_WIRE_MESSAGE(GohSearch, kMsgGohSearch, &GohSearch::subkeys)
};

/// The server scans each document's filter.
class GohServer
    : public ScanServer<kMsgGohStore, kMsgGohStoreAck, kMsgGohSearch> {
 public:
  explicit GohServer(const GohOptions& options);

  /// Bloom filters probed across all searches (n per search).
  uint64_t filters_probed() const { return filters_probed_; }

 private:
  /// INVALID_ARGUMENT unless `filter` holds exactly m bits.
  Status CheckScanned(const Bytes& filter) const override;
  Result<net::Message> HandleSearch(const net::Message& msg) override;

  GohOptions options_;
  uint64_t filters_probed_ = 0;
};

/// Stores per document its m-bit filter (BitVec's bytes).
class GohClient : public ScanClient<kMsgGohStore, kMsgGohStoreAck> {
 public:
  static Result<std::unique_ptr<GohClient>> Create(
      const crypto::MasterKey& key, const GohOptions& options,
      net::Channel* channel, RandomSource* rng);

  Result<core::SearchOutcome> Search(std::string_view keyword) override;
  std::string name() const override { return "goh-zidx"; }

  /// Trapdoor(w): the r subkeys y_i = PRF(k_i, w).
  Result<std::vector<Bytes>> MakeTrapdoor(std::string_view keyword) const;

 private:
  GohClient(std::vector<crypto::Prf> keys, core::DataCipher data,
            const GohOptions& options, net::Channel* channel,
            RandomSource* rng);

  Result<Bytes> Scanned(const core::Document& doc) const override;

  std::vector<crypto::Prf> keys_;  // k_1 .. k_r
  GohOptions options_;
};

/// Bit position a codeword selects in an m-bit filter (shared by client
/// insertion and server probing).
Result<uint64_t> GohBitPosition(const Bytes& subkey, uint64_t doc_id,
                                size_t bloom_bits);

}  // namespace sse::baselines

#endif  // SSE_BASELINES_GOH_ZIDX_H_
