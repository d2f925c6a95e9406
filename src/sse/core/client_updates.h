#ifndef SSE_CORE_CLIENT_UPDATES_H_
#define SSE_CORE_CLIENT_UPDATES_H_

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sse/core/types.h"
#include "sse/core/wire_common.h"
#include "sse/net/channel.h"

namespace sse::core {

/// The client-side update mechanics the paper schemes share. What each
/// scheme puts into an update entry stays in its own client.

/// One keyword's pending posting delta in an update run.
struct KeywordUpdate {
  std::string keyword;
  std::vector<uint64_t> ids;  // canonical: ascending, no duplicates
};

/// The per-keyword update sets of a Store, U(w) = {i | w ∈ W_i}: one entry
/// per distinct keyword, in keyword order.
std::vector<KeywordUpdate> GroupByKeyword(const std::vector<Document>& docs);

/// One entry per distinct keyword, each carrying `ids`. Fake updates pass
/// no ids. A keyword listed twice in one run would get two entries built
/// from the same state, so duplicates are dropped.
std::vector<KeywordUpdate> PerKeyword(const std::vector<std::string>& keywords,
                                      const std::vector<uint64_t>& ids);

/// The document ids a client has stored. Every paper scheme refuses to
/// store an id twice, so the set is part of the persisted client state.
class UsedIds {
 public:
  /// ALREADY_EXISTS if any id in `docs` was stored before.
  Status CheckFresh(const std::vector<Document>& docs) const;
  void Add(const std::vector<Document>& docs);
  bool Contains(uint64_t id) const { return ids_.count(id) > 0; }
  void Erase(uint64_t id) { ids_.erase(id); }

 private:
  std::set<uint64_t> ids_;

 public:
  /// count ‖ varint id*, ascending.
  static constexpr auto kFields = std::tuple{&UsedIds::ids_};
};

/// Sends one update round and checks that the server applied every entry,
/// as counted by the ack field `acked`. With `batch_ops` each entry travels
/// as its own op through the channel's MultiCall and the documents ride
/// with the first op. Otherwise the round is one monolithic request, and
/// so is a round without entries, which still has to carry the documents.
template <typename Request, typename Ack>
Status SendUpdateRound(net::Channel& channel, bool batch_ops,
                       decltype(Request::entries) entries,
                       std::vector<WireDocument> documents,
                       uint64_t Ack::*acked) {
  auto check_ack = [acked](const net::Message& msg,
                           size_t expected) -> Status {
    Ack ack;
    SSE_ASSIGN_OR_RETURN(ack, Ack::FromMessage(msg));
    if (ack.*acked != expected) {
      return Status::ProtocolError("server acknowledged wrong entry count");
    }
    return Status::OK();
  };
  if (batch_ops && !entries.empty()) {
    std::vector<net::Message> round;
    round.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      Request one;
      one.entries.push_back(std::move(entries[i]));
      if (i == 0) one.documents = std::move(documents);
      round.push_back(one.ToMessage());
    }
    for (Result<net::Message>& reply : channel.MultiCall(round)) {
      if (!reply.ok()) return reply.status();
      SSE_RETURN_IF_ERROR(check_ack(*reply, 1));
    }
    return Status::OK();
  }
  Request req;
  req.entries = std::move(entries);
  req.documents = std::move(documents);
  net::Message reply;
  SSE_ASSIGN_OR_RETURN(reply, channel.Call(req.ToMessage()));
  return check_ack(reply, req.entries.size());
}

}  // namespace sse::core

#endif  // SSE_CORE_CLIENT_UPDATES_H_
