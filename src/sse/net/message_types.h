#ifndef SSE_NET_MESSAGE_TYPES_H_
#define SSE_NET_MESSAGE_TYPES_H_

#include <cstdint>
#include <string_view>

#include "sse/net/message.h"

namespace sse::net {

/// What a message type is for. Every layer of the served stack acts on it:
/// - kSearch: a request that leaves the server's state as it was. Shards
///   lock shared, followers may answer it, admission sheds it last.
/// - kMutation: a request that may change the state. DurableServer
///   journals it, the reply caches dedup it, shards lock exclusive,
///   admission sheds it first.
/// - kControl: stats scrapes and replication traffic, which admission
///   never sheds.
/// - kReply: an answer. Servers refuse it as a request.
enum class MessageKind : uint8_t { kSearch, kMutation, kControl, kReply };

struct MessageTypeInfo {
  uint16_t type;
  std::string_view name;
  MessageKind kind;
};

/// The one table of message types, one row per type, in type order
/// (docs/PROTOCOL.md lists the payloads). SSE_WIRE_MESSAGE refuses to
/// compile a message whose type has no row. The scheme and baseline headers
/// name their types by the same numbers; net/ sits below them, so the rows
/// spell the numbers.
inline constexpr MessageTypeInfo kMessageTypes[] = {
    {kMsgError, "Error", MessageKind::kReply},
    // A caller that cannot see inside a batch envelope must assume it
    // mutates; ClassifyFrame classes it by its first sub-op.
    {kMsgBatch, "Batch", MessageKind::kMutation},
    {kMsgBatchReply, "BatchReply", MessageKind::kReply},
    {kMsgStats, "Stats", MessageKind::kControl},
    {kMsgStatsReply, "StatsReply", MessageKind::kReply},
    {kMsgReplAppend, "ReplAppend", MessageKind::kControl},
    {kMsgReplAck, "ReplAck", MessageKind::kControl},
    {kMsgReplSnapshot, "ReplSnapshot", MessageKind::kControl},
    {kMsgReplPromote, "ReplPromote", MessageKind::kControl},
    // Scheme 1's update opens with a read-only nonce request.
    {kMsgRangeScheme1 + 1, "Scheme1.NonceRequest", MessageKind::kSearch},
    {kMsgRangeScheme1 + 2, "Scheme1.NonceReply", MessageKind::kReply},
    {kMsgRangeScheme1 + 3, "Scheme1.UpdateRequest", MessageKind::kMutation},
    {kMsgRangeScheme1 + 4, "Scheme1.UpdateAck", MessageKind::kReply},
    {kMsgRangeScheme1 + 5, "Scheme1.SearchRequest", MessageKind::kSearch},
    {kMsgRangeScheme1 + 6, "Scheme1.SearchNonceReply", MessageKind::kReply},
    {kMsgRangeScheme1 + 7, "Scheme1.SearchFinish", MessageKind::kSearch},
    {kMsgRangeScheme1 + 8, "Scheme1.SearchResult", MessageKind::kReply},
    {kMsgRangeScheme2 + 1, "Scheme2.UpdateRequest", MessageKind::kMutation},
    {kMsgRangeScheme2 + 2, "Scheme2.UpdateAck", MessageKind::kReply},
    {kMsgRangeScheme2 + 3, "Scheme2.SearchRequest", MessageKind::kSearch},
    {kMsgRangeScheme2 + 4, "Scheme2.SearchResult", MessageKind::kReply},
    {kMsgRangeScheme2 + 5, "Scheme2.FetchAllRequest", MessageKind::kSearch},
    {kMsgRangeScheme2 + 6, "Scheme2.FetchAllReply", MessageKind::kReply},
    {kMsgRangeScheme2 + 7, "Scheme2.ReinitRequest", MessageKind::kMutation},
    {kMsgRangeScheme2 + 8, "Scheme2.ReinitAck", MessageKind::kReply},
    {kMsgRangeBaseline + 1, "Baseline.SwpStore", MessageKind::kMutation},
    {kMsgRangeBaseline + 2, "Baseline.SwpStoreAck", MessageKind::kReply},
    {kMsgRangeBaseline + 3, "Baseline.SwpSearch", MessageKind::kSearch},
    {kMsgRangeBaseline + 4, "Baseline.SwpSearchResult", MessageKind::kReply},
    {kMsgRangeBaseline + 11, "Baseline.GohStore", MessageKind::kMutation},
    {kMsgRangeBaseline + 12, "Baseline.GohStoreAck", MessageKind::kReply},
    {kMsgRangeBaseline + 13, "Baseline.GohSearch", MessageKind::kSearch},
    {kMsgRangeBaseline + 14, "Baseline.GohSearchResult", MessageKind::kReply},
    {kMsgRangeBaseline + 21, "Baseline.CgkoBuild", MessageKind::kMutation},
    {kMsgRangeBaseline + 22, "Baseline.CgkoBuildAck", MessageKind::kReply},
    {kMsgRangeBaseline + 23, "Baseline.CgkoSearch", MessageKind::kSearch},
    {kMsgRangeBaseline + 24, "Baseline.CgkoSearchResult", MessageKind::kReply},
    {kMsgRangeScheme3 + 1, "Scheme3.UpdateRequest", MessageKind::kMutation},
    {kMsgRangeScheme3 + 2, "Scheme3.UpdateAck", MessageKind::kReply},
    {kMsgRangeScheme3 + 3, "Scheme3.SearchRequest", MessageKind::kSearch},
    {kMsgRangeScheme3 + 4, "Scheme3.SearchResult", MessageKind::kReply},
    // Engine-internal: one shard's slice of a walked trapdoor.
    {kMsgRangeScheme3 + 5, "Scheme3.ProbeRequest", MessageKind::kSearch},
};

/// The row of `type`, or nullptr when no message has that type.
constexpr const MessageTypeInfo* FindMessageType(uint16_t type) {
  for (const MessageTypeInfo& row : kMessageTypes) {
    if (row.type == type) return &row;
  }
  return nullptr;
}

/// True when `type` has a row of that kind; false for unknown types.
constexpr bool IsKind(uint16_t type, MessageKind kind) {
  const MessageTypeInfo* row = FindMessageType(type);
  return row != nullptr && row->kind == kind;
}

}  // namespace sse::net

#endif  // SSE_NET_MESSAGE_TYPES_H_
