#include "sse/baselines/goh_zidx.h"

#include <algorithm>

#include "sse/crypto/hkdf.h"
#include "sse/util/serde.h"

namespace sse::baselines {

namespace {

Status CheckType(const net::Message& msg, uint16_t want) {
  if (msg.type != want) {
    return Status::ProtocolError("expected " + net::MessageTypeName(want) +
                                 ", got " + net::MessageTypeName(msg.type));
  }
  return Status::OK();
}

}  // namespace

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

Result<net::Message> GohServer::Handle(const net::Message& request) {
  switch (request.type) {
    case kMsgGohStore:
      return HandleStore(request);
    case kMsgGohSearch:
      return HandleSearch(request);
    default:
      return Status::ProtocolError("goh server: unexpected message " +
                                   net::MessageTypeName(request.type));
  }
}

Result<net::Message> GohServer::HandleStore(const net::Message& msg) {
  BufferReader r(msg.payload);
  uint64_t count = 0;
  SSE_ASSIGN_OR_RETURN(count, r.GetVarint());
  if (count > r.remaining()) {
    return Status::Corruption("document count exceeds payload");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    SSE_ASSIGN_OR_RETURN(id, r.GetVarint());
    Bytes blob;
    SSE_ASSIGN_OR_RETURN(blob, r.GetBytes());
    Bytes filter_bytes;
    SSE_ASSIGN_OR_RETURN(filter_bytes, r.GetBytes());
    BitVec filter;
    SSE_ASSIGN_OR_RETURN(filter,
                         BitVec::FromBytes(options_.bloom_bits, filter_bytes));
    docs_.Put(id, std::move(blob));
    filters_.emplace_back(id, std::move(filter));
  }
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  BufferWriter w;
  w.PutVarint(count);
  return net::Message{kMsgGohStoreAck, w.TakeData()};
}

Result<net::Message> GohServer::HandleSearch(const net::Message& msg) {
  BufferReader r(msg.payload);
  std::vector<Bytes> subkeys;
  SSE_ASSIGN_OR_RETURN(subkeys, core::GetBytesList(r));
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  if (subkeys.size() != options_.num_keys) {
    return Status::ProtocolError("trapdoor has wrong subkey count");
  }

  // The O(n) scan: probe every document's filter with the r codewords.
  std::vector<uint64_t> ids;
  for (const auto& [id, filter] : filters_) {
    ++filters_probed_;
    bool all_set = true;
    for (const Bytes& subkey : subkeys) {
      uint64_t pos = 0;
      SSE_ASSIGN_OR_RETURN(pos,
                           GohBitPosition(subkey, id, options_.bloom_bits));
      if (!filter.Get(static_cast<size_t>(pos))) {
        all_set = false;
        break;
      }
    }
    if (all_set) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());

  BufferWriter w;
  core::PutIdList(w, ids);
  std::vector<core::WireDocument> wire_docs;
  std::vector<std::pair<uint64_t, Bytes>> fetched = docs_.GetMany(ids);
  for (const auto& [id, blob] : fetched) {
    wire_docs.push_back(core::WireDocument{id, blob});
  }
  core::PutWireDocuments(w, wire_docs);
  return net::Message{kMsgGohSearchResult, w.TakeData()};
}

Result<Bytes> GohServer::SerializeState() const {
  BufferWriter w;
  w.PutVarint(filters_.size());
  for (const auto& [id, filter] : filters_) {
    w.PutVarint(id);
    w.PutBytes(filter.ToBytes());
  }
  w.PutVarint(docs_.size());
  docs_.ForEach([&](uint64_t id, const Bytes& blob) {
    w.PutVarint(id);
    w.PutBytes(blob);
    return true;
  });
  return w.TakeData();
}

Status GohServer::RestoreState(BytesView data) {
  decltype(filters_) filters;
  storage::DocumentStore docs;
  BufferReader r(data);
  uint64_t filter_count = 0;
  SSE_ASSIGN_OR_RETURN(filter_count, r.GetVarint());
  for (uint64_t i = 0; i < filter_count; ++i) {
    uint64_t id = 0;
    SSE_ASSIGN_OR_RETURN(id, r.GetVarint());
    Bytes bits;
    SSE_ASSIGN_OR_RETURN(bits, r.GetBytes());
    BitVec filter;
    SSE_ASSIGN_OR_RETURN(filter, BitVec::FromBytes(options_.bloom_bits, bits));
    filters.emplace_back(id, std::move(filter));
  }
  uint64_t doc_count = 0;
  SSE_ASSIGN_OR_RETURN(doc_count, r.GetVarint());
  for (uint64_t i = 0; i < doc_count; ++i) {
    uint64_t id = 0;
    SSE_ASSIGN_OR_RETURN(id, r.GetVarint());
    Bytes blob;
    SSE_ASSIGN_OR_RETURN(blob, r.GetBytes());
    docs.Put(id, std::move(blob));
  }
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  filters_ = std::move(filters);
  docs_ = std::move(docs);
  return Status::OK();
}

bool GohServer::IsMutating(uint16_t msg_type) const {
  return msg_type == kMsgGohStore;
}

// ---------------------------------------------------------------- client --

GohClient::GohClient(std::vector<crypto::Prf> keys, core::DataCipher data,
                     const GohOptions& options, net::Channel* channel,
                     RandomSource* rng)
    : keys_(std::move(keys)),
      data_(std::move(data)),
      options_(options),
      channel_(channel),
      rng_(rng) {}

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

Status GohClient::Store(const std::vector<core::Document>& docs) {
  if (docs.empty()) return Status::OK();
  BufferWriter w;
  w.PutVarint(docs.size());
  for (const core::Document& doc : docs) {
    w.PutVarint(doc.id);
    Bytes blob;
    SSE_ASSIGN_OR_RETURN(blob, data_.Seal(doc, *rng_));
    w.PutBytes(blob);

    BitVec filter(options_.bloom_bits);
    for (const std::string& kw : doc.keywords) {
      std::vector<Bytes> subkeys;
      SSE_ASSIGN_OR_RETURN(subkeys, MakeTrapdoor(kw));
      for (const Bytes& subkey : subkeys) {
        uint64_t pos = 0;
        SSE_ASSIGN_OR_RETURN(
            pos, GohBitPosition(subkey, doc.id, options_.bloom_bits));
        filter.Set(static_cast<size_t>(pos));
      }
    }
    w.PutBytes(filter.ToBytes());
  }
  net::Message ack;
  SSE_ASSIGN_OR_RETURN(
      ack, channel_->Call(net::Message{kMsgGohStore, w.TakeData()}));
  SSE_RETURN_IF_ERROR(CheckType(ack, kMsgGohStoreAck));
  return Status::OK();
}

Result<core::SearchOutcome> GohClient::Search(std::string_view keyword) {
  std::vector<Bytes> subkeys;
  SSE_ASSIGN_OR_RETURN(subkeys, MakeTrapdoor(keyword));
  BufferWriter w;
  core::PutBytesList(w, subkeys);
  net::Message reply;
  SSE_ASSIGN_OR_RETURN(
      reply, channel_->Call(net::Message{kMsgGohSearch, w.TakeData()}));
  SSE_RETURN_IF_ERROR(CheckType(reply, kMsgGohSearchResult));
  BufferReader r(reply.payload);
  core::SearchOutcome outcome;
  SSE_ASSIGN_OR_RETURN(outcome.ids, core::GetIdList(r));
  std::vector<core::WireDocument> wire_docs;
  SSE_ASSIGN_OR_RETURN(wire_docs, core::GetWireDocuments(r));
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  SSE_RETURN_IF_ERROR(data_.OpenAll(wire_docs, outcome));
  return outcome;
}

}  // namespace sse::baselines
