#include "sse/net/batch.h"

namespace sse::net {

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
