#include "sse/core/scheme3_server.h"

#include "sse/core/segment.h"
#include "sse/crypto/hash_chain.h"
#include "sse/util/serde.h"

namespace sse::core {

Scheme3Server::Scheme3Server(const SchemeOptions& options)
    : options_(options) {}

Result<net::Message> Scheme3Server::Handle(const net::Message& request) {
  switch (request.type) {
    case kMsgS3UpdateRequest:
      return HandleUpdate(request);
    case kMsgS3SearchRequest:
      return HandleSearch(request);
    default:
      return Status::ProtocolError("scheme3 server: unexpected message " +
                                   net::MessageTypeName(request.type));
  }
}

Result<net::Message> Scheme3Server::HandleUpdate(const net::Message& msg) {
  S3UpdateRequest req;
  SSE_ASSIGN_OR_RETURN(req, S3UpdateRequest::FromMessage(msg));
  for (S3UpdateEntry& e : req.entries) {
    Bytes* existing = index_.GetMutable(e.address);
    if (existing == nullptr) {
      index_bytes_ += e.address.size() + e.ciphertext.size();
      index_.Put(e.address, std::move(e.ciphertext));
    } else {
      // A chain key is used for exactly one logical update, so a
      // duplicate address can only be a re-delivered update (e.g. a WAL
      // replay racing a reply-cache miss). Its plaintext is the same
      // delta; overwriting keeps updates idempotent.
      index_bytes_ += e.ciphertext.size();
      index_bytes_ -= existing->size();
      *existing = std::move(e.ciphertext);
    }
  }
  for (const WireDocument& doc : req.documents) {
    docs_.Put(doc.id, doc.ciphertext);
  }
  S3UpdateAck ack;
  ack.entries_added = req.entries.size();
  return ack.ToMessage();
}

Result<net::Message> Scheme3Server::HandleSearch(const net::Message& msg)
    const {
  S3SearchRequest req;
  SSE_ASSIGN_OR_RETURN(req, S3SearchRequest::FromMessage(msg));
  if (req.counter > options_.chain_length) {
    return Status::InvalidArgument("trapdoor counter exceeds chain length");
  }

  // Walk toward older keys: position starts at k_c and steps through
  // k_{c-1}, ..., k_1, probing each position's address against the index.
  // Updates made after this trapdoor was released live at addresses of
  // keys the walk can never reach.
  S3SearchResult result;
  index::DocIdList ids;
  Bytes position = req.chain_element;
  for (uint32_t i = req.counter; i >= 1; --i) {
    Bytes address;
    SSE_ASSIGN_OR_RETURN(address, crypto::HashChain::Tag(position));
    const Bytes* segment = index_.Get(address);
    if (segment != nullptr) {
      SSE_RETURN_IF_ERROR(OpenSegmentInto(position, *segment, ids));
      ++result.entries_decrypted;
    }
    if (i > 1) {
      SSE_ASSIGN_OR_RETURN(position, crypto::HashChain::Step(position));
      ++result.chain_steps;
    }
  }
  total_chain_steps_.fetch_add(result.chain_steps, std::memory_order_relaxed);
  total_entries_decrypted_.fetch_add(result.entries_decrypted,
                                     std::memory_order_relaxed);

  result.found = result.entries_decrypted > 0;
  result.ids = std::move(ids);
  std::vector<std::pair<uint64_t, Bytes>> fetched = docs_.GetMany(result.ids);
  for (const auto& [id, blob] : fetched) {
    result.documents.push_back(WireDocument{id, blob});
  }
  return result.ToMessage();
}

Result<Bytes> Scheme3Server::SerializeState() const {
  BufferWriter w;
  w.PutVarint(index_.size());
  index_.ForEach([&](const Bytes& address, const Bytes& ciphertext) {
    w.PutBytes(address);
    w.PutBytes(ciphertext);
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

Status Scheme3Server::RestoreState(BytesView data) {
  TokenMap<Bytes> index;
  storage::DocumentStore docs;
  uint64_t index_bytes = 0;

  BufferReader r(data);
  uint64_t entry_count = 0;
  SSE_ASSIGN_OR_RETURN(entry_count, r.GetVarint());
  if (entry_count > r.remaining()) {
    return Status::Corruption("entry count exceeds payload");
  }
  for (uint64_t i = 0; i < entry_count; ++i) {
    Bytes address;
    SSE_ASSIGN_OR_RETURN(address, r.GetBytes());
    Bytes ciphertext;
    SSE_ASSIGN_OR_RETURN(ciphertext, r.GetBytes());
    index_bytes += address.size() + ciphertext.size();
    index.Put(address, std::move(ciphertext));
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

bool Scheme3Server::IsMutating(uint16_t msg_type) const {
  return msg_type == kMsgS3UpdateRequest;
}

}  // namespace sse::core
