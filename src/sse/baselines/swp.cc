#include "sse/baselines/swp.h"

#include <algorithm>

#include "sse/net/wire.h"

namespace sse::baselines {

namespace {

constexpr size_t kBlockSize = 32;
constexpr size_t kHalfSize = 16;

}  // namespace

// ---------------------------------------------------------------- server --

Status SwpServer::CheckScanned(const Bytes& blocks) const {
  if (blocks.size() % kBlockSize != 0) {
    return Status::ProtocolError("word block payload not a block multiple");
  }
  return Status::OK();
}

Result<net::Message> SwpServer::HandleSearch(const net::Message& msg) {
  SwpSearch req;
  SSE_ASSIGN_OR_RETURN(req, SwpSearch::FromMessage(msg));
  const Bytes& x = req.word;
  if (x.size() != kBlockSize) {
    return Status::ProtocolError("word ciphertext must be 32 bytes");
  }
  Result<crypto::Prf> prf = crypto::Prf::Create(req.check_key);
  if (!prf.ok()) return prf.status();

  // The linear scan: every block of every document.
  std::vector<uint64_t> ids;
  for (const auto& [id, doc_blocks] : state_.entries) {
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

  return SearchReply<kMsgSwpSearchResult>{ids, state_.docs.Fetch(ids)}
      .ToMessage();
}

// ---------------------------------------------------------------- client --

SwpClient::SwpClient(crypto::Prf word_prf, crypto::Prf check_prf,
                     core::DataCipher data, net::Channel* channel,
                     RandomSource* rng)
    : ScanClient(std::move(data), channel, rng),
      word_prf_(std::move(word_prf)),
      check_prf_(std::move(check_prf)) {}

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

Result<Bytes> SwpClient::Scanned(const core::Document& doc) const {
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
  return blocks;
}

Result<core::SearchOutcome> SwpClient::Search(std::string_view keyword) {
  Bytes x;
  SSE_ASSIGN_OR_RETURN(x, WordCiphertext(keyword));
  Bytes l(x.begin(), x.begin() + kHalfSize);
  Bytes k;
  SSE_ASSIGN_OR_RETURN(k, check_prf_.Eval(l));

  net::Message reply;
  SSE_ASSIGN_OR_RETURN(reply, channel_->Call(SwpSearch{x, k}.ToMessage()));
  return OpenSearchReply<kMsgSwpSearchResult>(reply, data_);
}

}  // namespace sse::baselines
