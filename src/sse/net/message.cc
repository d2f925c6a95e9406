#include "sse/net/message.h"

#include <iterator>

#include "sse/net/frame.h"
#include "sse/net/message_types.h"
#include "sse/util/crc32.h"
#include "sse/util/serde.h"

namespace sse::net {

void Message::StampSession(uint64_t client, uint64_t sequence) {
  has_session = true;
  client_id = client;
  seq = sequence;
  payload_crc = Crc32c(payload);
}

void Message::EchoSession(const Message& request) {
  if (!request.has_session) return;
  StampSession(request.client_id, request.seq);
}

namespace {

/// The one envelope writer behind Encode() and EncodeFrame().
void PutEnvelope(const Message& m, BufferWriter& w) {
  uint16_t tag = m.type;
  if (m.has_session) tag |= kMsgFlagSession;
  if (m.has_trace) tag |= kMsgFlagTrace;
  if (m.has_deadline) tag |= kMsgFlagDeadline;
  w.PutU16(tag);
  const size_t body = m.payload.size() +
                      (m.has_session ? Message::kSessionHeaderSize : 0) +
                      (m.has_trace ? Message::kTraceHeaderSize : 0) +
                      (m.has_deadline ? Message::kDeadlineHeaderSize : 0);
  w.PutU32(static_cast<uint32_t>(body));
  if (m.has_session) {
    w.PutU64(m.client_id);
    w.PutU64(m.seq);
    w.PutU32(m.payload_crc);
  }
  if (m.has_trace) {
    w.PutU64(m.trace_id);
    w.PutU64(m.trace_parent);
    w.PutU8(m.trace_flags);
  }
  if (m.has_deadline) w.PutU32(m.deadline_ms);
  w.PutRaw(m.payload);
}

}  // namespace

Bytes Message::Encode() const {
  BufferWriter w;
  w.Reserve(WireSize());
  PutEnvelope(*this, w);
  return w.TakeData();
}

Bytes Message::EncodeFrame() const {
  const size_t size = WireSize();
  BufferWriter w;
  w.Reserve(kFrameHeaderSize + size);
  w.PutU32(static_cast<uint32_t>(size));
  PutEnvelope(*this, w);
  return w.TakeData();
}

Result<Message> Message::Decode(BytesView data) {
  BufferReader r(data);
  Message msg;
  SSE_ASSIGN_OR_RETURN(msg.type, r.GetU16());
  uint32_t len = 0;
  SSE_ASSIGN_OR_RETURN(len, r.GetU32());
  if (len != r.remaining()) {
    return Status::ProtocolError("message length field mismatch");
  }
  if ((msg.type & kMsgFlagSession) != 0) {
    msg.type &= static_cast<uint16_t>(~kMsgFlagSession);
    msg.has_session = true;
    if (len < kSessionHeaderSize) {
      return Status::ProtocolError("session header truncated");
    }
    SSE_ASSIGN_OR_RETURN(msg.client_id, r.GetU64());
    SSE_ASSIGN_OR_RETURN(msg.seq, r.GetU64());
    SSE_ASSIGN_OR_RETURN(msg.payload_crc, r.GetU32());
    len -= static_cast<uint32_t>(kSessionHeaderSize);
  }
  if ((msg.type & kMsgFlagTrace) != 0) {
    msg.type &= static_cast<uint16_t>(~kMsgFlagTrace);
    msg.has_trace = true;
    if (len < kTraceHeaderSize) {
      return Status::ProtocolError("trace header truncated");
    }
    SSE_ASSIGN_OR_RETURN(msg.trace_id, r.GetU64());
    SSE_ASSIGN_OR_RETURN(msg.trace_parent, r.GetU64());
    SSE_ASSIGN_OR_RETURN(msg.trace_flags, r.GetU8());
    len -= static_cast<uint32_t>(kTraceHeaderSize);
  }
  if ((msg.type & kMsgFlagDeadline) != 0) {
    msg.type &= static_cast<uint16_t>(~kMsgFlagDeadline);
    msg.has_deadline = true;
    if (len < kDeadlineHeaderSize) {
      return Status::ProtocolError("deadline header truncated");
    }
    SSE_ASSIGN_OR_RETURN(msg.deadline_ms, r.GetU32());
    len -= static_cast<uint32_t>(kDeadlineHeaderSize);
  }
  SSE_ASSIGN_OR_RETURN(msg.payload, r.GetRaw(len));
  if (msg.has_session && Crc32c(msg.payload) != msg.payload_crc) {
    return Status::Corruption("message payload fails its session checksum");
  }
  return msg;
}

bool Message::PeekSession(BytesView data, uint64_t* client_id, uint64_t* seq) {
  BufferReader r(data);
  auto type = r.GetU16();
  if (!type.ok() || (*type & kMsgFlagSession) == 0) return false;
  auto len = r.GetU32();
  if (!len.ok()) return false;
  auto client = r.GetU64();
  auto sequence = r.GetU64();
  if (!client.ok() || !sequence.ok()) return false;
  *client_id = *client;
  *seq = *sequence;
  return true;
}

std::string MessageTypeName(uint16_t type) {
  if (const MessageTypeInfo* row = FindMessageType(type)) {
    return std::string(row->name);
  }
  // A type with no row is named by its range and low byte.
  static constexpr const char* kRangePrefix[] = {
      "Unknown.", "Scheme1.", "Scheme2.", "Baseline.", "Scheme3."};
  const size_t range = type >> 8;
  return (range < std::size(kRangePrefix) ? kRangePrefix[range] : "Unknown.") +
         std::to_string(type & 0xff);
}

Message MakeErrorMessage(const Status& status) {
  BufferWriter w;
  w.PutU16(static_cast<uint16_t>(status.code()));
  w.PutString(status.message());
  return Message{kMsgError, w.TakeData()};
}

Status DecodeErrorMessage(const Message& msg) {
  if (msg.type != kMsgError) return Status::OK();
  BufferReader r(msg.payload);
  auto code = r.GetU16();
  auto text = r.GetString();
  if (!code.ok() || !text.ok()) {
    return Status::ProtocolError("malformed error reply");
  }
  return Status(static_cast<StatusCode>(code.value()), text.value());
}

}  // namespace sse::net
