#include "sse/core/scheme1_server.h"

#include "sse/crypto/prg.h"
#include "sse/util/bitvec.h"
#include "sse/util/serde.h"

namespace sse::core {

Scheme1Server::Scheme1Server(const SchemeOptions& options)
    : options_(options) {}

Result<net::Message> Scheme1Server::Handle(const net::Message& request) {
  switch (request.type) {
    case kMsgS1NonceRequest:
      return HandleNonceRequest(request);
    case kMsgS1UpdateRequest:
      return HandleUpdate(request);
    case kMsgS1SearchRequest:
      return HandleSearchRequest(request);
    case kMsgS1SearchFinish:
      return HandleSearchFinish(request);
    default:
      return Status::ProtocolError("scheme1 server: unexpected message " +
                                   net::MessageTypeName(request.type));
  }
}

Result<net::Message> Scheme1Server::HandleNonceRequest(
    const net::Message& msg) {
  S1NonceRequest req;
  SSE_ASSIGN_OR_RETURN(req, S1NonceRequest::FromMessage(msg));
  S1NonceReply reply;
  reply.entries.reserve(req.tokens.size());
  for (const Bytes& token : req.tokens) {
    S1NonceEntry e;
    const Entry* entry = index_.Get(token);
    if (entry != nullptr) {
      e.present = true;
      e.enc_nonce = entry->enc_nonce;
    }
    reply.entries.push_back(std::move(e));
  }
  return reply.ToMessage();
}

Result<net::Message> Scheme1Server::HandleUpdate(const net::Message& msg) {
  S1UpdateRequest req;
  SSE_ASSIGN_OR_RETURN(req, S1UpdateRequest::FromMessage(msg));
  const size_t bitmap_bytes = (options_.max_documents + 7) / 8;
  for (const S1UpdateEntry& e : req.entries) {
    if (e.masked_delta.size() != bitmap_bytes) {
      return Status::ProtocolError(
          "masked bitmap has wrong size: got " +
          std::to_string(e.masked_delta.size()) + ", want " +
          std::to_string(bitmap_bytes));
    }
    if (e.is_new) {
      if (index_.Contains(e.token)) {
        return Status::ProtocolError(
            "update marks token as new but it already exists");
      }
      index_bytes_ += e.masked_delta.size() + e.new_enc_nonce.size();
      index_.Put(e.token, Entry{e.masked_delta, e.new_enc_nonce});
    } else {
      Entry* entry = index_.GetMutable(e.token);
      if (entry == nullptr) {
        return Status::ProtocolError(
            "update targets a token the server does not hold");
      }
      // (I(w) ⊕ G(r)) ⊕ (U(w) ⊕ G(r) ⊕ G(r')) = I'(w) ⊕ G(r').
      SSE_RETURN_IF_ERROR(XorInPlace(entry->masked_bitmap, e.masked_delta));
      index_bytes_ -= entry->enc_nonce.size();
      index_bytes_ += e.new_enc_nonce.size();
      entry->enc_nonce = e.new_enc_nonce;
    }
  }
  for (const WireDocument& doc : req.documents) {
    docs_.Put(doc.id, doc.ciphertext);
  }
  S1UpdateAck ack;
  ack.keywords_updated = req.entries.size();
  return ack.ToMessage();
}

Result<net::Message> Scheme1Server::HandleSearchRequest(
    const net::Message& msg) {
  S1SearchRequest req;
  SSE_ASSIGN_OR_RETURN(req, S1SearchRequest::FromMessage(msg));
  S1SearchNonceReply reply;
  const Entry* entry = index_.Get(req.token);
  if (entry != nullptr) {
    reply.found = true;
    reply.enc_nonce = entry->enc_nonce;
  }
  return reply.ToMessage();
}

Result<net::Message> Scheme1Server::HandleSearchFinish(
    const net::Message& msg) {
  S1SearchFinish req;
  SSE_ASSIGN_OR_RETURN(req, S1SearchFinish::FromMessage(msg));
  const Entry* entry = index_.Get(req.token);
  if (entry == nullptr) {
    return Status::ProtocolError("search finish for unknown token");
  }
  // Unmask: (I(w) ⊕ G(r)) ⊕ G(r) = I(w).
  Bytes mask;
  SSE_ASSIGN_OR_RETURN(mask,
                       crypto::PrgExpand(req.nonce, entry->masked_bitmap.size()));
  Bytes plain = entry->masked_bitmap;
  SSE_RETURN_IF_ERROR(XorInPlace(plain, mask));
  BitVec bitmap;
  SSE_ASSIGN_OR_RETURN(bitmap, BitVec::FromBytes(options_.max_documents, plain));

  S1SearchResult result;
  result.ids = bitmap.Ones();
  std::vector<std::pair<uint64_t, Bytes>> fetched = docs_.GetMany(result.ids);
  for (const auto& [id, blob] : fetched) {
    result.documents.push_back(WireDocument{id, blob});
  }
  return result.ToMessage();
}

Result<Bytes> Scheme1Server::SerializeState() const {
  BufferWriter w;
  w.PutVarint(index_.size());
  index_.ForEach([&](const Bytes& token, const Entry& entry) {
    w.PutBytes(token);
    w.PutBytes(entry.masked_bitmap);
    w.PutBytes(entry.enc_nonce);
    return true;
  });
  w.PutVarint(docs_.size());
  docs_.ForEach([&](uint64_t id, const Bytes& blob) {
    w.PutVarint(id);
    w.PutBytes(blob);
    return true;
  });
  return w.TakeData();
}

Status Scheme1Server::RestoreState(BytesView data) {
  TokenMap<Entry> index;
  storage::DocumentStore docs;
  uint64_t index_bytes = 0;

  BufferReader r(data);
  uint64_t keyword_count = 0;
  SSE_ASSIGN_OR_RETURN(keyword_count, r.GetVarint());
  for (uint64_t i = 0; i < keyword_count; ++i) {
    Bytes token;
    SSE_ASSIGN_OR_RETURN(token, r.GetBytes());
    Entry entry;
    SSE_ASSIGN_OR_RETURN(entry.masked_bitmap, r.GetBytes());
    SSE_ASSIGN_OR_RETURN(entry.enc_nonce, r.GetBytes());
    index_bytes += entry.masked_bitmap.size() + entry.enc_nonce.size();
    index.Put(token, std::move(entry));
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

  index_ = std::move(index);
  docs_ = std::move(docs);
  index_bytes_ = index_bytes;
  return Status::OK();
}

bool Scheme1Server::IsMutating(uint16_t msg_type) const {
  return msg_type == kMsgS1UpdateRequest;
}

}  // namespace sse::core
