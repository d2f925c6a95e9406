#ifndef SSE_NET_MESSAGE_H_
#define SSE_NET_MESSAGE_H_

#include <cstdint>
#include <string>

#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::net {

/// High bit of the type tag: the payload is preceded by a session header
/// (client_id ‖ seq ‖ payload CRC-32C). Messages without the flag encode
/// exactly as they always did, so the framing stays backward compatible;
/// the flag is stripped during Decode and `type` is always the clean tag.
inline constexpr uint16_t kMsgFlagSession = 0x8000;

/// Second-highest bit of the type tag: a trace header (trace id ‖ sender
/// span id ‖ flags) follows the session header (if any) and precedes the
/// payload. Untraced messages encode exactly as before, so tracing costs
/// zero wire bytes until a request is actually sampled.
inline constexpr uint16_t kMsgFlagTrace = 0x4000;

/// Third-highest bit of the type tag: a deadline header (remaining budget
/// in milliseconds, u32) follows the trace header (if any) and precedes
/// the payload. The deadline is *relative* — the sender's remaining call
/// budget at send time — so clock skew between endpoints does not matter;
/// the receiver anchors it to its own arrival clock. Like the trace
/// header it sits outside the session CRC, so a retrying client can
/// re-stamp a fresh (smaller) budget on each attempt without invalidating
/// the stamped payload.
inline constexpr uint16_t kMsgFlagDeadline = 0x2000;

/// Trace header flag bits.
inline constexpr uint8_t kTraceFlagSampled = 0x01;

/// Wire message: a 16-bit type tag plus an opaque payload. Each scheme
/// defines its own type constants (see sse/core/*_messages.h); the channel
/// layer only needs the envelope to frame, count and transcribe traffic.
///
/// An optional *session header* supports exactly-once RPC: the client
/// stamps each logical call with its (client_id, seq) identity plus a
/// payload checksum, every retry of that call reuses the stamp, and the
/// server's reply cache dedups on it (see core::ReplyCache). The checksum
/// lets both ends reject corrupted frames with a retryable verdict instead
/// of feeding garbage to the protocol parsers.
struct Message {
  uint16_t type = 0;
  Bytes payload;

  /// Session header (present when has_session). client_id identifies one
  /// retrying client instance, seq its logical call number; payload_crc is
  /// CRC-32C of `payload` at stamping time.
  bool has_session = false;
  uint64_t client_id = 0;
  uint64_t seq = 0;
  uint32_t payload_crc = 0;

  /// Trace header (present when has_trace): which end-to-end request this
  /// frame belongs to and which client-side span sent it, so server-side
  /// spans can parent across the wire (see sse/obs/trace.h).
  bool has_trace = false;
  uint64_t trace_id = 0;
  uint64_t trace_parent = 0;
  uint8_t trace_flags = 0;

  /// Deadline header (present when has_deadline): the sender's remaining
  /// per-call budget in milliseconds at the moment the frame was encoded.
  /// Servers anchor it to arrival time and drop the work (retryable
  /// DEADLINE_EXCEEDED) once the budget is spent — at dequeue, between
  /// batch sub-ops, and before the WAL fsync (see sse/net/deadline.h).
  bool has_deadline = false;
  uint32_t deadline_ms = 0;

  /// Envelope size on the wire: type(2) ‖ u32 length ‖ [session(20)] ‖
  /// [trace(17)] ‖ [deadline(4)] ‖ payload.
  size_t WireSize() const {
    return 2 + 4 + (has_session ? kSessionHeaderSize : 0) +
           (has_trace ? kTraceHeaderSize : 0) +
           (has_deadline ? kDeadlineHeaderSize : 0) + payload.size();
  }

  /// Fills the session header for this payload (computes the CRC). Use on
  /// fully built messages only: mutating `payload` afterwards invalidates
  /// the checksum, which Decode will then reject.
  void StampSession(uint64_t client, uint64_t sequence);

  /// Copies `request`'s session stamp onto this reply so the client can
  /// match it to the call it made (and detect stale replies from a
  /// duplicated or reordered stream). Recomputes the CRC for this payload.
  void EchoSession(const Message& request);

  /// Serializes the envelope (type, length, headers, payload): the bytes
  /// the WAL, the reply cache and the in-process channel keep.
  Bytes Encode() const;

  /// Serializes into a TCP frame in one pass: the little-endian u32 length
  /// of the Encode() bytes, then those bytes, in one buffer.
  Bytes EncodeFrame() const;

  /// Parses a framed message; rejects trailing bytes. A session-stamped
  /// message whose payload fails its checksum comes back as CORRUPTION —
  /// the transport delivered damaged bytes and the sender should retry.
  static Result<Message> Decode(BytesView data);

  /// Best-effort parse of just the session stamp of a frame whose full
  /// Decode failed (e.g. a corrupt payload). Lets a pipelined server
  /// address its error reply to the right in-flight call: the stamp fields
  /// sit before the payload, so they usually survive payload damage. False
  /// when the header itself is unreadable or unstamped.
  static bool PeekSession(BytesView data, uint64_t* client_id, uint64_t* seq);

  static constexpr size_t kSessionHeaderSize = 8 + 8 + 4;
  static constexpr size_t kTraceHeaderSize = 8 + 8 + 1;
  static constexpr size_t kDeadlineHeaderSize = 4;
};

/// Message type ranges. Keeping ranges disjoint per scheme makes
/// transcripts self-describing.
inline constexpr uint16_t kMsgRangeCommon = 0x0000;
inline constexpr uint16_t kMsgRangeScheme1 = 0x0100;
inline constexpr uint16_t kMsgRangeScheme2 = 0x0200;
inline constexpr uint16_t kMsgRangeBaseline = 0x0300;
inline constexpr uint16_t kMsgRangeScheme3 = 0x0400;

/// Common messages.
inline constexpr uint16_t kMsgError = kMsgRangeCommon + 1;
// kMsgRangeCommon + 2 to + 5 belonged to retired document put and fetch
// RPCs (documents travel inside update requests and search replies); they
// stay unassigned so an old peer's frame is never read as a new type.
/// Batch envelope: N logical sub-ops in one frame (see sse/net/batch.h).
inline constexpr uint16_t kMsgBatch = kMsgRangeCommon + 6;
inline constexpr uint16_t kMsgBatchReply = kMsgRangeCommon + 7;
/// Admin RPC: ask a server for its metrics (and optionally recent sampled
/// spans); served by TcpServer, see sse/obs/stats_rpc.h for the payloads.
inline constexpr uint16_t kMsgStats = kMsgRangeCommon + 8;
inline constexpr uint16_t kMsgStatsReply = kMsgRangeCommon + 9;
/// Replication: primary → follower WAL record shipping plus control plane
/// (see sse/repl/messages.h for the payloads and docs/PROTOCOL.md §7).
/// An empty ReplAppend doubles as a health probe; the ReplAck reply always
/// carries the follower's durable next sequence and its fencing epoch.
inline constexpr uint16_t kMsgReplAppend = kMsgRangeCommon + 10;
inline constexpr uint16_t kMsgReplAck = kMsgRangeCommon + 11;
/// Full-state catch-up for a follower that fell behind WAL compaction: the
/// primary ships its newest snapshot blob with the WAL cut it covers.
inline constexpr uint16_t kMsgReplSnapshot = kMsgRangeCommon + 12;
/// Operator RPC: promote a follower to primary (replays its shipped
/// segments through the normal recovery path, bumps the fencing epoch).
inline constexpr uint16_t kMsgReplPromote = kMsgRangeCommon + 13;

/// Human-readable name for a message type (for transcripts and benches).
std::string MessageTypeName(uint16_t type);

/// Builds the standard error reply carrying a status.
Message MakeErrorMessage(const Status& status);

/// If `msg` is an error reply, decodes it into a Status (always non-OK);
/// otherwise returns OK.
Status DecodeErrorMessage(const Message& msg);

}  // namespace sse::net

#endif  // SSE_NET_MESSAGE_H_
