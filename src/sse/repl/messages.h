#ifndef SSE_REPL_MESSAGES_H_
#define SSE_REPL_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "sse/net/message.h"
#include "sse/net/wire.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::repl {

/// Payloads of the replication control plane (kMsgReplAppend / kMsgReplAck
/// / kMsgReplSnapshot / kMsgReplPromote). The carried WAL records are the
/// byte-exact journaled request messages — a follower's log is therefore
/// byte-identical to the primary's and replays through the same recovery
/// path on promotion.
///
/// Every primary→follower message carries the primary's fencing `epoch`:
/// promotion bumps the epoch, and a follower rejects traffic from an epoch
/// older than its own, so a deposed primary that comes back cannot
/// overwrite a promoted successor's log.

/// kMsgReplAppend: a contiguous run of WAL records starting at
/// `first_seq`. An empty run is a health probe — the follower still
/// answers with its cursor, which is how the sender learns where to ship
/// from on (re)connect.
struct ReplAppend {
  uint64_t epoch = 0;
  uint64_t first_seq = 0;
  std::vector<Bytes> records;

  SSE_WIRE_MESSAGE(ReplAppend, net::kMsgReplAppend,
                   net::wire::Fixed(&ReplAppend::epoch),
                   net::wire::Fixed(&ReplAppend::first_seq),
                   &ReplAppend::records)
};

/// kMsgReplAck: the follower's reply to every append or snapshot.
/// `next_seq` is the sequence its durable log expects next — one cursor
/// covers catch-up, duplicate-skip and rewind: the sender resumes shipping
/// exactly there. `accepted` is false when the append was refused (epoch
/// fence, sequence gap, or local storage fault); the ack still carries
/// everything the sender needs to recover.
struct ReplAck {
  uint64_t epoch = 0;
  uint64_t next_seq = 1;
  bool accepted = true;

  SSE_WIRE_MESSAGE(ReplAck, net::kMsgReplAck, net::wire::Fixed(&ReplAck::epoch),
                   net::wire::Fixed(&ReplAck::next_seq), &ReplAck::accepted)
};

/// kMsgReplSnapshot: full-state catch-up for a follower whose cursor fell
/// behind the primary's WAL compaction horizon. `blob` is the primary's
/// newest checkpoint in DurableServer's SDR2 format (state ‖ reply cache ‖
/// the WAL cut `cut_seq` it was taken at); the follower installs it and
/// resumes its log at `cut_seq`.
struct ReplSnapshot {
  uint64_t epoch = 0;
  uint64_t cut_seq = 1;
  Bytes blob;

  SSE_WIRE_MESSAGE(ReplSnapshot, net::kMsgReplSnapshot,
                   net::wire::Fixed(&ReplSnapshot::epoch),
                   net::wire::Fixed(&ReplSnapshot::cut_seq),
                   &ReplSnapshot::blob)
};

/// kMsgReplPromote: operator RPC ordering a follower to become primary.
/// The node replays its shipped segments through the normal
/// salvage/snapshot recovery, adopts `max(own epoch, min_epoch) + 1` and
/// starts serving mutations; the reply is a ReplAck with the new epoch.
struct ReplPromote {
  uint64_t min_epoch = 0;

  SSE_WIRE_MESSAGE(ReplPromote, net::kMsgReplPromote,
                   net::wire::Fixed(&ReplPromote::min_epoch))
};

}  // namespace sse::repl

#endif  // SSE_REPL_MESSAGES_H_
