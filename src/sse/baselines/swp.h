#ifndef SSE_BASELINES_SWP_H_
#define SSE_BASELINES_SWP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sse/baselines/search_reply.h"
#include "sse/core/options.h"
#include "sse/core/persistable.h"
#include "sse/core/types.h"
#include "sse/core/wire_common.h"
#include "sse/crypto/keys.h"
#include "sse/crypto/prf.h"
#include "sse/net/channel.h"

namespace sse::baselines {

/// Baseline: Song–Wagner–Perrig (S&P 2000), the "hidden search" scheme the
/// paper's §2/§3 argue against. Every keyword occurrence is stored as a
/// 32-byte searchable block; a search hands the server a deterministic
/// word ciphertext X and a check key k, and the server *scans every block
/// of every document*: O(total keyword occurrences) per query — the linear
/// cost our Scheme 1/2 avoid.
///
/// Block construction per occurrence (client side):
///   X = PRF(k_word, w)            (32 bytes, split X = L ‖ R, 16+16)
///   k = PRF(k_check, L)
///   S = fresh random 16 bytes
///   C = X ⊕ (S ‖ PRF(k, S)[0..16))
/// Server-side test given trapdoor (X, k): split C ⊕ X = (a ‖ b) and check
/// b == PRF(k, a)[0..16).
///
/// Updates are trivially cheap (append new blocks) — the trade-off runs
/// exactly opposite to CGKO SSE-1, bracketing the paper's design point.
inline constexpr uint16_t kMsgSwpStore = net::kMsgRangeBaseline + 1;
inline constexpr uint16_t kMsgSwpStoreAck = net::kMsgRangeBaseline + 2;
inline constexpr uint16_t kMsgSwpSearch = net::kMsgRangeBaseline + 3;
inline constexpr uint16_t kMsgSwpSearchResult = net::kMsgRangeBaseline + 4;

/// Search: the trapdoor (X, k).
struct SwpSearch {
  Bytes word;       // X, 32 bytes
  Bytes check_key;  // k

  SSE_WIRE_MESSAGE(SwpSearch, kMsgSwpSearch, &SwpSearch::word,
                   &SwpSearch::check_key)
};

/// The server scans each document's word blocks (32 bytes each,
/// concatenated).
class SwpServer
    : public ScanServer<kMsgSwpStore, kMsgSwpStoreAck, kMsgSwpSearch> {
 public:
  /// Total searchable blocks scanned across all searches.
  uint64_t blocks_scanned() const { return blocks_scanned_; }

 private:
  Status CheckScanned(const Bytes& blocks) const override;
  Result<net::Message> HandleSearch(const net::Message& msg) override;

  uint64_t blocks_scanned_ = 0;
};

/// Stores per document its word blocks, 32 bytes per keyword occurrence.
class SwpClient : public ScanClient<kMsgSwpStore, kMsgSwpStoreAck> {
 public:
  static Result<std::unique_ptr<SwpClient>> Create(
      const crypto::MasterKey& key, net::Channel* channel, RandomSource* rng);

  Result<core::SearchOutcome> Search(std::string_view keyword) override;
  std::string name() const override { return "swp"; }

 private:
  SwpClient(crypto::Prf word_prf, crypto::Prf check_prf, core::DataCipher data,
            net::Channel* channel, RandomSource* rng);

  Result<Bytes> Scanned(const core::Document& doc) const override;
  Result<Bytes> WordCiphertext(std::string_view keyword) const;

  crypto::Prf word_prf_;
  crypto::Prf check_prf_;
};

}  // namespace sse::baselines

#endif  // SSE_BASELINES_SWP_H_
