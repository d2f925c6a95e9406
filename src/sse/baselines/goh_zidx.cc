#include "sse/baselines/goh_zidx.h"

#include <algorithm>

#include "sse/crypto/hkdf.h"
#include "sse/net/wire.h"

namespace sse::baselines {

Result<uint64_t> GohBitPosition(const Bytes& subkey, uint64_t doc_id,
                                size_t bloom_bits) {
  Bytes id_bytes = core::EncodeDocId(doc_id);
  Bytes codeword;
  SSE_ASSIGN_OR_RETURN(codeword, crypto::HmacSha256(subkey, id_bytes));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(codeword[i]) << (8 * i);
  return v % bloom_bits;
}

// ---------------------------------------------------------------- server --

GohServer::GohServer(const GohOptions& options) : options_(options) {}

Status GohServer::CheckScanned(const Bytes& filter) const {
  return BitVec::FromBytes(options_.bloom_bits, filter).status();
}

Result<net::Message> GohServer::HandleSearch(const net::Message& msg) {
  GohSearch req;
  SSE_ASSIGN_OR_RETURN(req, GohSearch::FromMessage(msg));
  if (req.subkeys.size() != options_.num_keys) {
    return Status::ProtocolError("trapdoor has wrong subkey count");
  }

  // The O(n) scan: probe every document's filter with the r codewords.
  std::vector<uint64_t> ids;
  for (const auto& [id, filter] : state_.entries) {
    ++filters_probed_;
    bool all_set = true;
    for (const Bytes& subkey : req.subkeys) {
      uint64_t pos = 0;
      SSE_ASSIGN_OR_RETURN(pos,
                           GohBitPosition(subkey, id, options_.bloom_bits));
      // Bit `pos` in BitVec's byte layout: byte pos / 8, lowest bit first.
      if (((filter[pos / 8] >> (pos % 8)) & 1) == 0) {
        all_set = false;
        break;
      }
    }
    if (all_set) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());

  return SearchReply<kMsgGohSearchResult>{ids, state_.docs.Fetch(ids)}
      .ToMessage();
}

// ---------------------------------------------------------------- client --

GohClient::GohClient(std::vector<crypto::Prf> keys, core::DataCipher data,
                     const GohOptions& options, net::Channel* channel,
                     RandomSource* rng)
    : ScanClient(std::move(data), channel, rng),
      keys_(std::move(keys)),
      options_(options) {}

Result<std::unique_ptr<GohClient>> GohClient::Create(
    const crypto::MasterKey& key, const GohOptions& options,
    net::Channel* channel, RandomSource* rng) {
  if (channel == nullptr || rng == nullptr) {
    return Status::InvalidArgument("channel and rng must be non-null");
  }
  if (options.num_keys == 0 || options.bloom_bits < 8) {
    return Status::InvalidArgument("invalid Goh parameters");
  }
  std::vector<crypto::Prf> keys;
  keys.reserve(options.num_keys);
  for (size_t i = 0; i < options.num_keys; ++i) {
    Bytes subkey_material;
    SSE_ASSIGN_OR_RETURN(
        subkey_material,
        crypto::HkdfSha256(key.keyword_key(), /*salt=*/{},
                           "goh.key." + std::to_string(i), 32));
    Result<crypto::Prf> prf = crypto::Prf::Create(subkey_material);
    if (!prf.ok()) return prf.status();
    keys.push_back(std::move(prf).value());
  }
  Result<core::DataCipher> data = core::DataCipher::Create(key);
  if (!data.ok()) return data.status();
  return std::unique_ptr<GohClient>(new GohClient(std::move(keys),
                                                  std::move(data).value(),
                                                  options, channel, rng));
}

Result<std::vector<Bytes>> GohClient::MakeTrapdoor(
    std::string_view keyword) const {
  std::vector<Bytes> subkeys;
  subkeys.reserve(keys_.size());
  for (const crypto::Prf& prf : keys_) {
    Bytes y;
    SSE_ASSIGN_OR_RETURN(y, prf.Eval(keyword));
    subkeys.push_back(std::move(y));
  }
  return subkeys;
}

Result<Bytes> GohClient::Scanned(const core::Document& doc) const {
  BitVec filter(options_.bloom_bits);
  for (const std::string& kw : doc.keywords) {
    std::vector<Bytes> subkeys;
    SSE_ASSIGN_OR_RETURN(subkeys, MakeTrapdoor(kw));
    for (const Bytes& subkey : subkeys) {
      uint64_t pos = 0;
      SSE_ASSIGN_OR_RETURN(pos,
                           GohBitPosition(subkey, doc.id, options_.bloom_bits));
      filter.Set(static_cast<size_t>(pos));
    }
  }
  return filter.ToBytes();
}

Result<core::SearchOutcome> GohClient::Search(std::string_view keyword) {
  GohSearch req;
  SSE_ASSIGN_OR_RETURN(req.subkeys, MakeTrapdoor(keyword));
  net::Message reply;
  SSE_ASSIGN_OR_RETURN(reply, channel_->Call(req.ToMessage()));
  return OpenSearchReply<kMsgGohSearchResult>(reply, data_);
}

}  // namespace sse::baselines
