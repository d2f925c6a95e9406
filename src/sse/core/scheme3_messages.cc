#include "sse/core/scheme3_messages.h"

#include <cstring>
#include <string>

#include "sse/util/serde.h"

namespace sse::core {

namespace {

Status CheckType(const net::Message& msg, uint16_t want) {
  if (msg.type != want) {
    return Status::ProtocolError("expected message type " +
                                 net::MessageTypeName(want) + ", got " +
                                 net::MessageTypeName(msg.type));
  }
  return Status::OK();
}

}  // namespace

net::Message S3UpdateRequest::ToMessage() const {
  BufferWriter w;
  w.PutVarint(entries.size());
  for (const S3UpdateEntry& e : entries) {
    w.PutBytes(e.address);
    w.PutBytes(e.ciphertext);
  }
  PutWireDocuments(w, documents);
  return net::Message{kMsgS3UpdateRequest, w.TakeData()};
}

Result<S3UpdateRequest> S3UpdateRequest::FromMessage(const net::Message& msg) {
  SSE_RETURN_IF_ERROR(CheckType(msg, kMsgS3UpdateRequest));
  BufferReader r(msg.payload);
  uint64_t count = 0;
  SSE_ASSIGN_OR_RETURN(count, r.GetVarint());
  if (count > r.remaining()) {
    return Status::Corruption("entry count exceeds payload");
  }
  S3UpdateRequest out;
  out.entries.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    S3UpdateEntry e;
    SSE_ASSIGN_OR_RETURN(e.address, r.GetBytes());
    SSE_ASSIGN_OR_RETURN(e.ciphertext, r.GetBytes());
    out.entries.push_back(std::move(e));
  }
  SSE_ASSIGN_OR_RETURN(out.documents, GetWireDocuments(r));
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

net::Message S3UpdateAck::ToMessage() const {
  BufferWriter w;
  w.PutVarint(entries_added);
  return net::Message{kMsgS3UpdateAck, w.TakeData()};
}

Result<S3UpdateAck> S3UpdateAck::FromMessage(const net::Message& msg) {
  SSE_RETURN_IF_ERROR(CheckType(msg, kMsgS3UpdateAck));
  BufferReader r(msg.payload);
  S3UpdateAck out;
  SSE_ASSIGN_OR_RETURN(out.entries_added, r.GetVarint());
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

net::Message S3SearchRequest::ToMessage() const {
  BufferWriter w;
  w.PutBytes(chain_element);
  w.PutU32(counter);
  return net::Message{kMsgS3SearchRequest, w.TakeData()};
}

Result<S3SearchRequest> S3SearchRequest::FromMessage(const net::Message& msg) {
  SSE_RETURN_IF_ERROR(CheckType(msg, kMsgS3SearchRequest));
  BufferReader r(msg.payload);
  S3SearchRequest out;
  SSE_ASSIGN_OR_RETURN(out.chain_element, r.GetBytes());
  SSE_ASSIGN_OR_RETURN(out.counter, r.GetU32());
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

net::Message S3ProbeRequest::ToMessage() const {
  BufferWriter w;
  w.PutVarint(probes.size());
  for (const S3Probe& p : probes) {
    w.PutRaw(p.address);
    w.PutRaw(p.key);
  }
  return net::Message{kMsgS3ProbeRequest, w.TakeData()};
}

Result<S3ProbeRequest> S3ProbeRequest::FromMessage(const net::Message& msg) {
  SSE_RETURN_IF_ERROR(CheckType(msg, kMsgS3ProbeRequest));
  BufferReader r(msg.payload);
  uint64_t count = 0;
  SSE_ASSIGN_OR_RETURN(count, r.GetVarint());
  constexpr size_t kRecord = sizeof(S3Probe::address) + sizeof(S3Probe::key);
  if (count > r.remaining() / kRecord || r.remaining() != count * kRecord) {
    return Status::Corruption("probe count does not match the payload");
  }
  S3ProbeRequest out;
  out.probes.resize(static_cast<size_t>(count));
  const uint8_t* record = msg.payload.data() + r.position();
  for (S3Probe& p : out.probes) {
    std::memcpy(p.address.data(), record, p.address.size());
    std::memcpy(p.key.data(), record + p.address.size(), p.key.size());
    record += kRecord;
  }
  return out;
}

net::Message S3SearchResult::ToMessage() const {
  BufferWriter w;
  w.PutBool(found);
  PutIdList(w, ids);
  PutWireDocuments(w, documents);
  w.PutVarint(chain_steps);
  w.PutVarint(entries_decrypted);
  return net::Message{kMsgS3SearchResult, w.TakeData()};
}

Result<S3SearchResult> S3SearchResult::FromMessage(const net::Message& msg) {
  SSE_RETURN_IF_ERROR(CheckType(msg, kMsgS3SearchResult));
  BufferReader r(msg.payload);
  S3SearchResult out;
  SSE_ASSIGN_OR_RETURN(out.found, r.GetBool());
  SSE_ASSIGN_OR_RETURN(out.ids, GetIdList(r));
  SSE_ASSIGN_OR_RETURN(out.documents, GetWireDocuments(r));
  SSE_ASSIGN_OR_RETURN(out.chain_steps, r.GetVarint());
  SSE_ASSIGN_OR_RETURN(out.entries_decrypted, r.GetVarint());
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

}  // namespace sse::core
