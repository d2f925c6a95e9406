#include "sse/net/batch.h"

#include "sse/util/serde.h"

namespace sse::net {

Message BatchRequest::ToMessage() const {
  BufferWriter w;
  w.PutVarint(ops.size());
  for (const Op& op : ops) {
    w.PutVarint(op.seq);
    w.PutU16(op.type);
    w.PutBytes(op.payload);
  }
  Message msg;
  msg.type = kMsgBatch;
  msg.payload = w.TakeData();
  return msg;
}

Result<BatchRequest> BatchRequest::FromMessage(const Message& msg) {
  if (msg.type != kMsgBatch) {
    return Status::ProtocolError("not a batch envelope");
  }
  BufferReader r(msg.payload);
  uint64_t count = 0;
  SSE_ASSIGN_OR_RETURN(count, r.GetVarint());
  if (count > msg.payload.size()) {
    return Status::ProtocolError("batch op count exceeds payload");
  }
  BatchRequest batch;
  batch.ops.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Op op;
    SSE_ASSIGN_OR_RETURN(op.seq, r.GetVarint());
    SSE_ASSIGN_OR_RETURN(op.type, r.GetU16());
    SSE_ASSIGN_OR_RETURN(op.payload, r.GetBytes());
    batch.ops.push_back(std::move(op));
  }
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return batch;
}

Message BatchReply::ToMessage() const {
  BufferWriter w;
  w.PutVarint(entries.size());
  for (const Entry& e : entries) {
    w.PutU16(e.type);
    w.PutBytes(e.payload);
  }
  Message msg;
  msg.type = kMsgBatchReply;
  msg.payload = w.TakeData();
  return msg;
}

Result<BatchReply> BatchReply::FromMessage(const Message& msg) {
  if (msg.type != kMsgBatchReply) {
    return Status::ProtocolError("not a batch reply");
  }
  BufferReader r(msg.payload);
  uint64_t count = 0;
  SSE_ASSIGN_OR_RETURN(count, r.GetVarint());
  if (count > msg.payload.size()) {
    return Status::ProtocolError("batch entry count exceeds payload");
  }
  BatchReply reply;
  reply.entries.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Entry e;
    SSE_ASSIGN_OR_RETURN(e.type, r.GetU16());
    SSE_ASSIGN_OR_RETURN(e.payload, r.GetBytes());
    reply.entries.push_back(std::move(e));
  }
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return reply;
}

Result<std::vector<Message>> UnpackBatch(const Message& request) {
  BatchRequest batch;
  SSE_ASSIGN_OR_RETURN(batch, BatchRequest::FromMessage(request));
  std::vector<Message> subs(batch.ops.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    subs[i].type = batch.ops[i].type;
    subs[i].payload = std::move(batch.ops[i].payload);
    // The op seq is stable across retried envelopes, which is what makes a
    // partial batch retry apply each sub-op exactly once.
    if (request.has_session) {
      subs[i].StampSession(request.client_id, batch.ops[i].seq);
    }
  }
  return subs;
}

Message PackBatchReply(const Message& request, std::vector<Message> replies) {
  BatchReply breply;
  breply.entries.reserve(replies.size());
  for (Message& out : replies) {
    breply.entries.push_back(
        BatchReply::Entry{out.type, std::move(out.payload)});
  }
  Message reply = breply.ToMessage();
  reply.EchoSession(request);
  return reply;
}

}  // namespace sse::net
