#include "sse/baselines/swp.h"

#include <algorithm>

#include "sse/baselines/search_reply.h"
#include "sse/net/wire.h"
#include "sse/util/serde.h"

namespace sse::baselines {

namespace {

constexpr size_t kBlockSize = 32;
constexpr size_t kHalfSize = 16;

}  // namespace

// ---------------------------------------------------------------- server --

Result<net::Message> SwpServer::Handle(const net::Message& request) {
  switch (request.type) {
    case kMsgSwpStore:
      return HandleStore(request);
    case kMsgSwpSearch:
      return HandleSearch(request);
    default:
      return Status::ProtocolError("swp server: unexpected message " +
                                   net::MessageTypeName(request.type));
  }
}

Result<net::Message> SwpServer::HandleStore(const net::Message& msg) {
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
    Bytes word_blocks;
    SSE_ASSIGN_OR_RETURN(word_blocks, r.GetBytes());
    if (word_blocks.size() % kBlockSize != 0) {
      return Status::ProtocolError("word block payload not a block multiple");
    }
    docs_.Put(id, std::move(blob));
    blocks_.emplace_back(id, std::move(word_blocks));
  }
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  BufferWriter w;
  w.PutVarint(count);
  return net::Message{kMsgSwpStoreAck, w.TakeData()};
}

Result<net::Message> SwpServer::HandleSearch(const net::Message& msg) {
  BufferReader r(msg.payload);
  Bytes x;
  SSE_ASSIGN_OR_RETURN(x, r.GetBytes());
  Bytes check_key;
  SSE_ASSIGN_OR_RETURN(check_key, r.GetBytes());
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  if (x.size() != kBlockSize) {
    return Status::ProtocolError("word ciphertext must be 32 bytes");
  }
  Result<crypto::Prf> prf = crypto::Prf::Create(check_key);
  if (!prf.ok()) return prf.status();

  // The linear scan: every block of every document.
  std::vector<uint64_t> ids;
  for (const auto& [id, doc_blocks] : blocks_) {
    bool matched = false;
    for (size_t off = 0; off + kBlockSize <= doc_blocks.size();
         off += kBlockSize) {
      ++blocks_scanned_;
      uint8_t a[kHalfSize];
      uint8_t b[kHalfSize];
      for (size_t j = 0; j < kHalfSize; ++j) {
        a[j] = doc_blocks[off + j] ^ x[j];
        b[j] = doc_blocks[off + kHalfSize + j] ^ x[kHalfSize + j];
      }
      Bytes tag;
      SSE_ASSIGN_OR_RETURN(tag, prf->Eval(BytesView(a, kHalfSize)));
      if (ConstantTimeEqual(BytesView(tag.data(), kHalfSize),
                            BytesView(b, kHalfSize))) {
        matched = true;
        break;
      }
    }
    if (matched) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  return SearchReply<kMsgSwpSearchResult>{ids, docs_.Fetch(ids)}.ToMessage();
}

Result<Bytes> SwpServer::SerializeState() const {
  BufferWriter w;
  w.PutVarint(blocks_.size());
  for (const auto& [id, doc_blocks] : blocks_) {
    w.PutVarint(id);
    w.PutBytes(doc_blocks);
  }
  docs_.Serialize(w);
  return w.TakeData();
}

Status SwpServer::RestoreState(BytesView data) {
  decltype(blocks_) blocks;
  core::DocumentStore docs;
  BufferReader r(data);
  uint64_t block_count = 0;
  SSE_ASSIGN_OR_RETURN(block_count, r.GetVarint());
  for (uint64_t i = 0; i < block_count; ++i) {
    uint64_t id = 0;
    SSE_ASSIGN_OR_RETURN(id, r.GetVarint());
    Bytes doc_blocks;
    SSE_ASSIGN_OR_RETURN(doc_blocks, r.GetBytes());
    blocks.emplace_back(id, std::move(doc_blocks));
  }
  SSE_ASSIGN_OR_RETURN(docs, core::DocumentStore::Read(r));
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  blocks_ = std::move(blocks);
  docs_ = std::move(docs);
  return Status::OK();
}

bool SwpServer::IsMutating(uint16_t msg_type) const {
  return msg_type == kMsgSwpStore;
}

// ---------------------------------------------------------------- client --

SwpClient::SwpClient(crypto::Prf word_prf, crypto::Prf check_prf,
                     core::DataCipher data, net::Channel* channel,
                     RandomSource* rng)
    : word_prf_(std::move(word_prf)),
      check_prf_(std::move(check_prf)),
      data_(std::move(data)),
      channel_(channel),
      rng_(rng) {}

Result<std::unique_ptr<SwpClient>> SwpClient::Create(
    const crypto::MasterKey& key, net::Channel* channel, RandomSource* rng) {
  if (channel == nullptr || rng == nullptr) {
    return Status::InvalidArgument("channel and rng must be non-null");
  }
  Result<crypto::Prf> word_prf = crypto::Prf::Create(key.keyword_key());
  if (!word_prf.ok()) return word_prf.status();
  Bytes check_key;
  SSE_ASSIGN_OR_RETURN(check_key,
                       crypto::HmacSha256(key.keyword_key(),
                                          StringToBytes("swp.check")));
  Result<crypto::Prf> check_prf = crypto::Prf::Create(check_key);
  if (!check_prf.ok()) return check_prf.status();
  Result<core::DataCipher> data = core::DataCipher::Create(key);
  if (!data.ok()) return data.status();
  return std::unique_ptr<SwpClient>(
      new SwpClient(std::move(word_prf).value(), std::move(check_prf).value(),
                    std::move(data).value(), channel, rng));
}

Result<Bytes> SwpClient::WordCiphertext(std::string_view keyword) const {
  return word_prf_.EvalLabeled("swp.word", StringToBytes(keyword));
}

Status SwpClient::Store(const std::vector<core::Document>& docs) {
  if (docs.empty()) return Status::OK();
  BufferWriter w;
  w.PutVarint(docs.size());
  for (const core::Document& doc : docs) {
    w.PutVarint(doc.id);
    Bytes blob;
    SSE_ASSIGN_OR_RETURN(blob, data_.Seal(doc, *rng_));
    w.PutBytes(blob);

    Bytes blocks;
    blocks.reserve(doc.keywords.size() * kBlockSize);
    for (const std::string& kw : doc.keywords) {
      Bytes x;
      SSE_ASSIGN_OR_RETURN(x, WordCiphertext(kw));
      Bytes l(x.begin(), x.begin() + kHalfSize);
      Bytes k;
      SSE_ASSIGN_OR_RETURN(k, check_prf_.Eval(l));
      Bytes s;
      SSE_ASSIGN_OR_RETURN(s, rng_->Generate(kHalfSize));
      Result<crypto::Prf> stream = crypto::Prf::Create(k);
      if (!stream.ok()) return stream.status();
      Bytes t;
      SSE_ASSIGN_OR_RETURN(t, stream->Eval(s));
      // C = X ⊕ (S ‖ PRF(k, S)[0..16)).
      for (size_t j = 0; j < kHalfSize; ++j) {
        blocks.push_back(x[j] ^ s[j]);
      }
      for (size_t j = 0; j < kHalfSize; ++j) {
        blocks.push_back(x[kHalfSize + j] ^ t[j]);
      }
    }
    w.PutBytes(blocks);
  }
  net::Message ack;
  SSE_ASSIGN_OR_RETURN(ack, channel_->Call(net::Message{kMsgSwpStore,
                                                        w.TakeData()}));
  SSE_RETURN_IF_ERROR(net::wire::CheckType(ack, kMsgSwpStoreAck));
  return Status::OK();
}

Result<core::SearchOutcome> SwpClient::Search(std::string_view keyword) {
  Bytes x;
  SSE_ASSIGN_OR_RETURN(x, WordCiphertext(keyword));
  Bytes l(x.begin(), x.begin() + kHalfSize);
  Bytes k;
  SSE_ASSIGN_OR_RETURN(k, check_prf_.Eval(l));

  BufferWriter w;
  w.PutBytes(x);
  w.PutBytes(k);
  net::Message reply;
  SSE_ASSIGN_OR_RETURN(reply, channel_->Call(net::Message{kMsgSwpSearch,
                                                          w.TakeData()}));
  return OpenSearchReply<kMsgSwpSearchResult>(reply, data_);
}

}  // namespace sse::baselines
