#include "sse/core/scheme1_server.h"

#include "sse/crypto/prg.h"
#include "sse/util/bitvec.h"

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
    const S1IndexEntry* entry = state_.index.Get(token);
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
      if (state_.index.Contains(e.token)) {
        return Status::ProtocolError(
            "update marks token as new but it already exists");
      }
      index_bytes_ += e.masked_delta.size() + e.new_enc_nonce.size();
      state_.index.Put(e.token, S1IndexEntry{e.masked_delta, e.new_enc_nonce});
    } else {
      S1IndexEntry* entry = state_.index.GetMutable(e.token);
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
  state_.docs.Put(std::move(req.documents));
  S1UpdateAck ack;
  ack.keywords_updated = req.entries.size();
  return ack.ToMessage();
}

Result<net::Message> Scheme1Server::HandleSearchRequest(
    const net::Message& msg) {
  S1SearchRequest req;
  SSE_ASSIGN_OR_RETURN(req, S1SearchRequest::FromMessage(msg));
  S1SearchNonceReply reply;
  const S1IndexEntry* entry = state_.index.Get(req.token);
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
  const S1IndexEntry* entry = state_.index.Get(req.token);
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
  result.documents = state_.docs.Fetch(result.ids);
  return result.ToMessage();
}

uint64_t Scheme1Server::IndexBytes(const Bytes& /*token*/,
                                   const S1IndexEntry& entry) const {
  return entry.masked_bitmap.size() + entry.enc_nonce.size();
}

bool Scheme1Server::IsMutating(uint16_t msg_type) const {
  return msg_type == kMsgS1UpdateRequest;
}

}  // namespace sse::core
