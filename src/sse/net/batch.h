#ifndef SSE_NET_BATCH_H_
#define SSE_NET_BATCH_H_

#include <cstdint>
#include <vector>

#include "sse/net/message.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::net {

/// Batch envelope: one wire frame carrying N logical sub-operations, each
/// with its own per-op sequence number drawn from the client's session seq
/// space. The envelope itself is session-stamped like any other message
/// (client_id + envelope seq + payload CRC), which gives the whole frame
/// integrity and lets the pipelined transport correlate the reply; the
/// *per-op* identity for exactly-once dedup is (envelope.client_id, op.seq).
///
/// A retry of a partially failed batch re-sends only the unsettled sub-ops
/// in a fresh envelope (new envelope seq, unchanged op seqs), so the
/// server's reply cache serves already-applied sub-ops from memory and
/// executes only the genuinely new ones — each sub-op is applied exactly
/// once even when the batch around it is torn by a crash or a lost reply.
struct BatchRequest {
  struct Op {
    /// Per-op sequence number; combined with the envelope's client_id this
    /// is the dedup key. Meaningful only when the envelope is stamped.
    uint64_t seq = 0;
    uint16_t type = 0;
    Bytes payload;
  };
  std::vector<Op> ops;

  Message ToMessage() const;
  static Result<BatchRequest> FromMessage(const Message& msg);
};

/// Per-op replies, aligned with the request's ops by index. A failed sub-op
/// is carried as a kMsgError entry (see MakeErrorMessage); the envelope
/// reply itself is OK whenever the server could process the batch at all.
struct BatchReply {
  struct Entry {
    uint16_t type = 0;
    Bytes payload;
  };
  std::vector<Entry> entries;

  Message ToMessage() const;
  static Result<BatchReply> FromMessage(const Message& msg);
};

/// Server side of an envelope, step one: its sub-ops as standalone
/// messages, in op order. A stamped envelope stamps each with (envelope
/// client_id, op seq), the op's dedup identity, so a sub-op is deduped
/// and journaled exactly like a client that sent it alone.
Result<std::vector<Message>> UnpackBatch(const Message& request);

/// Server side, step two: the envelope's reply, one entry per sub-op reply
/// (aligned with UnpackBatch's output; a failed op as a kMsgError entry),
/// with the envelope's session echoed. Entries are (type, payload) only:
/// the sub replies' own session stamps are redundant inside the envelope,
/// whose echoed stamp and CRC cover the assembled reply end to end.
Message PackBatchReply(const Message& request, std::vector<Message> replies);

}  // namespace sse::net

#endif  // SSE_NET_BATCH_H_
