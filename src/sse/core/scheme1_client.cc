#include "sse/core/scheme1_client.h"

#include <algorithm>

#include "sse/core/scheme1_messages.h"
#include "sse/crypto/hkdf.h"
#include "sse/crypto/prg.h"
#include "sse/util/bitvec.h"
#include "sse/net/wire.h"

namespace sse::core {

namespace {
constexpr size_t kNonceSize = 32;
constexpr const char* kTokenLabel = "s1.token";
}  // namespace

Scheme1Client::Scheme1Client(crypto::Prf prf, crypto::ElGamal elgamal,
                             DataCipher data, const SchemeOptions& options,
                             net::Channel* channel, RandomSource* rng)
    : prf_(std::move(prf)),
      elgamal_(std::move(elgamal)),
      data_(std::move(data)),
      options_(options),
      channel_(channel),
      rng_(rng) {}

Result<std::unique_ptr<Scheme1Client>> Scheme1Client::Create(
    const crypto::MasterKey& key, const SchemeOptions& options,
    net::Channel* channel, RandomSource* rng) {
  if (channel == nullptr || rng == nullptr) {
    return Status::InvalidArgument("channel and rng must be non-null");
  }
  Result<crypto::Prf> prf = crypto::Prf::Create(key.keyword_key());
  if (!prf.ok()) return prf.status();
  Bytes elgamal_secret;
  SSE_ASSIGN_OR_RETURN(
      elgamal_secret,
      crypto::HkdfSha256(key.keyword_key(), /*salt=*/{}, "sse.s1.elgamal", 32));
  Result<crypto::ElGamal> elgamal =
      crypto::ElGamal::FromSecret(options.elgamal_group, elgamal_secret);
  if (!elgamal.ok()) return elgamal.status();
  Result<DataCipher> data = DataCipher::Create(key);
  if (!data.ok()) return data.status();
  return std::unique_ptr<Scheme1Client>(new Scheme1Client(
      std::move(prf).value(), std::move(elgamal).value(),
      std::move(data).value(), options, channel, rng));
}

Result<Bytes> Scheme1Client::Trapdoor(std::string_view keyword) const {
  return prf_.EvalLabeled(kTokenLabel, StringToBytes(keyword));
}

Status Scheme1Client::Store(const std::vector<Document>& docs) {
  if (docs.empty()) return Status::OK();
  // Validate identifiers before touching the network.
  for (const Document& doc : docs) {
    if (doc.id >= options_.max_documents) {
      return Status::OutOfRange("document id " + std::to_string(doc.id) +
                                " exceeds bitmap capacity " +
                                std::to_string(options_.max_documents));
    }
  }
  SSE_RETURN_IF_ERROR(used_ids_.CheckFresh(docs));
  SSE_RETURN_IF_ERROR(RunUpdateProtocol(GroupByKeyword(docs), docs));
  used_ids_.Add(docs);
  return Status::OK();
}

Status Scheme1Client::FakeUpdate(const std::vector<std::string>& keywords) {
  // U(w) = ∅: re-mask only.
  return RunUpdateProtocol(PerKeyword(keywords, /*ids=*/{}),
                           /*documents=*/{});
}

Status Scheme1Client::RemoveDocument(uint64_t id,
                                     const std::vector<std::string>& keywords) {
  if (!used_ids_.Contains(id)) {
    return Status::NotFound("document id " + std::to_string(id) +
                            " is not stored");
  }
  // XOR toggles the bit off; one entry per keyword, since toggling the
  // same keyword twice would re-add the id.
  SSE_RETURN_IF_ERROR(
      RunUpdateProtocol(PerKeyword(keywords, {id}), /*documents=*/{}));
  used_ids_.Erase(id);
  return Status::OK();
}

Status Scheme1Client::RunUpdateProtocol(
    const std::vector<KeywordUpdate>& updates,
    const std::vector<Document>& documents) {
  const size_t bitmap_bits = options_.max_documents;
  // Batched mode sends each keyword as its own op through MultiCall (a
  // RetryingChannel packs the ops into pipelined kMsgBatch envelopes, so a
  // K-keyword round costs ~1 frame instead of K round trips). A run with
  // no keywords still needs a message to carry documents, so it always
  // takes the monolithic path.
  const bool batched = options_.batch_ops && !updates.empty();

  // Round 1 (Fig. 1, first exchange): request F(r) for every keyword.
  std::vector<Bytes> tokens;
  tokens.reserve(updates.size());
  for (const KeywordUpdate& u : updates) {
    Bytes token;
    SSE_ASSIGN_OR_RETURN(token, Trapdoor(u.keyword));
    tokens.push_back(std::move(token));
  }
  std::vector<S1NonceEntry> nonce_entries;
  nonce_entries.reserve(updates.size());
  if (batched) {
    std::vector<net::Message> round1;
    round1.reserve(updates.size());
    for (const Bytes& token : tokens) {
      S1NonceRequest one;
      one.tokens.push_back(token);
      round1.push_back(one.ToMessage());
    }
    std::vector<Result<net::Message>> replies = channel_->MultiCall(round1);
    for (Result<net::Message>& reply_msg : replies) {
      if (!reply_msg.ok()) return reply_msg.status();
      S1NonceReply one;
      SSE_ASSIGN_OR_RETURN(one, S1NonceReply::FromMessage(*reply_msg));
      if (one.entries.size() != 1) {
        return Status::ProtocolError("nonce reply entry count mismatch");
      }
      nonce_entries.push_back(std::move(one.entries[0]));
    }
  } else {
    S1NonceRequest nonce_req;
    nonce_req.tokens = tokens;
    net::Message reply_msg;
    SSE_ASSIGN_OR_RETURN(reply_msg, channel_->Call(nonce_req.ToMessage()));
    S1NonceReply nonce_reply;
    SSE_ASSIGN_OR_RETURN(nonce_reply, S1NonceReply::FromMessage(reply_msg));
    if (nonce_reply.entries.size() != updates.size()) {
      return Status::ProtocolError("nonce reply entry count mismatch");
    }
    nonce_entries = std::move(nonce_reply.entries);
  }

  // Round 2: build the masked deltas.
  std::vector<S1UpdateEntry> entries;
  entries.reserve(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    const KeywordUpdate& u = updates[i];
    const S1NonceEntry& nonce_entry = nonce_entries[i];

    BitVec delta;
    SSE_ASSIGN_OR_RETURN(delta, BitVec::FromPositions(bitmap_bits, u.ids));
    Bytes payload = delta.ToBytes();  // U(w), plaintext on the client only

    // Fresh nonce r' and its mask G(r').
    Bytes new_nonce;
    SSE_ASSIGN_OR_RETURN(new_nonce, rng_->Generate(kNonceSize));
    Bytes new_mask;
    SSE_ASSIGN_OR_RETURN(new_mask,
                         crypto::PrgExpand(new_nonce, payload.size()));
    SSE_RETURN_IF_ERROR(XorInPlace(payload, new_mask));  // U ⊕ G(r')

    S1UpdateEntry entry;
    entry.token = tokens[i];
    entry.is_new = !nonce_entry.present;
    if (nonce_entry.present) {
      // Recover r and add G(r): the delta becomes U ⊕ G(r) ⊕ G(r').
      Bytes old_nonce;
      SSE_ASSIGN_OR_RETURN(old_nonce, elgamal_.Decrypt(nonce_entry.enc_nonce));
      Bytes old_mask;
      SSE_ASSIGN_OR_RETURN(old_mask,
                           crypto::PrgExpand(old_nonce, payload.size()));
      SSE_RETURN_IF_ERROR(XorInPlace(payload, old_mask));
    }
    entry.masked_delta = std::move(payload);
    SSE_ASSIGN_OR_RETURN(entry.new_enc_nonce,
                         elgamal_.Encrypt(new_nonce, *rng_));
    entries.push_back(std::move(entry));
  }

  // Encrypted data items ride along in the same round.
  std::vector<WireDocument> wire_docs;
  SSE_ASSIGN_OR_RETURN(wire_docs, data_.SealAll(documents, *rng_));
  return SendUpdateRound<S1UpdateRequest>(*channel_, options_.batch_ops,
                                          std::move(entries),
                                          std::move(wire_docs),
                                          &S1UpdateAck::keywords_updated);
}

Bytes Scheme1Client::SerializeState() const {
  return net::wire::Serialize(used_ids_);
}

Status Scheme1Client::RestoreState(BytesView data) {
  SSE_ASSIGN_OR_RETURN(used_ids_, net::wire::Parse<UsedIds>(data));
  return Status::OK();
}

Result<SearchOutcome> Scheme1Client::Search(std::string_view keyword) {
  // Round 1 (Fig. 2): send the trapdoor, receive F(r).
  S1SearchRequest req;
  SSE_ASSIGN_OR_RETURN(req.token, Trapdoor(keyword));
  net::Message reply_msg;
  SSE_ASSIGN_OR_RETURN(reply_msg, channel_->Call(req.ToMessage()));
  S1SearchNonceReply nonce_reply;
  SSE_ASSIGN_OR_RETURN(nonce_reply,
                       S1SearchNonceReply::FromMessage(reply_msg));
  if (!nonce_reply.found) {
    return SearchOutcome{};  // keyword never stored
  }

  // Round 2: release r so the server can unmask I(w).
  S1SearchFinish finish;
  finish.token = req.token;
  SSE_ASSIGN_OR_RETURN(finish.nonce, elgamal_.Decrypt(nonce_reply.enc_nonce));
  net::Message result_msg;
  SSE_ASSIGN_OR_RETURN(result_msg, channel_->Call(finish.ToMessage()));
  return ParseSearchResult(result_msg);
}

Result<SearchOutcome> Scheme1Client::ParseSearchResult(
    const net::Message& msg) {
  S1SearchResult result;
  SSE_ASSIGN_OR_RETURN(result, S1SearchResult::FromMessage(msg));
  SearchOutcome outcome;
  outcome.ids = result.ids;
  std::sort(outcome.ids.begin(), outcome.ids.end());
  SSE_RETURN_IF_ERROR(data_.OpenAll(result.documents, outcome));
  return outcome;
}

Result<std::vector<SearchOutcome>> Scheme1Client::MultiSearch(
    const std::vector<std::string>& keywords) {
  if (!options_.batch_ops) return SseClientInterface::MultiSearch(keywords);
  const size_t n = keywords.size();
  std::vector<SearchOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // Round 1 (Fig. 2): all K trapdoors pipelined in one MultiCall.
  std::vector<Bytes> tokens(n);
  std::vector<net::Message> round1;
  round1.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SSE_ASSIGN_OR_RETURN(tokens[i], Trapdoor(keywords[i]));
    S1SearchRequest req;
    req.token = tokens[i];
    round1.push_back(req.ToMessage());
  }
  std::vector<Result<net::Message>> replies = channel_->MultiCall(round1);

  // Round 2 only for the keywords the server knows: release each r.
  std::vector<size_t> found;
  std::vector<net::Message> round2;
  for (size_t i = 0; i < n; ++i) {
    if (!replies[i].ok()) return replies[i].status();
    S1SearchNonceReply nonce_reply;
    SSE_ASSIGN_OR_RETURN(nonce_reply,
                         S1SearchNonceReply::FromMessage(*replies[i]));
    if (!nonce_reply.found) continue;  // never stored: empty outcome
    S1SearchFinish finish;
    finish.token = tokens[i];
    SSE_ASSIGN_OR_RETURN(finish.nonce,
                         elgamal_.Decrypt(nonce_reply.enc_nonce));
    found.push_back(i);
    round2.push_back(finish.ToMessage());
  }
  std::vector<Result<net::Message>> results = channel_->MultiCall(round2);
  for (size_t k = 0; k < found.size(); ++k) {
    if (!results[k].ok()) return results[k].status();
    SSE_ASSIGN_OR_RETURN(outcomes[found[k]], ParseSearchResult(*results[k]));
  }
  return outcomes;
}

}  // namespace sse::core
