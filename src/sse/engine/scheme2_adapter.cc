#include "sse/engine/scheme2_adapter.h"

#include <utility>

#include "sse/core/scheme2_messages.h"
#include "sse/engine/shard_router.h"

namespace sse::engine {

using core::S2FetchAllReply;
using core::S2FetchAllRequest;
using core::S2ReinitAck;
using core::S2ReinitRequest;
using core::S2SearchRequest;
using core::S2SearchResult;
using core::S2UpdateAck;
using core::S2UpdateRequest;

namespace {
BytesView EntryToken(const core::S2UpdateEntry& entry) { return entry.token; }
}  // namespace

std::unique_ptr<SchemeShard> Scheme2Adapter::CreateShard() const {
  return std::make_unique<ServerShard<core::Scheme2Server>>(options_);
}

bool Scheme2Adapter::IsMutating(uint16_t msg_type) const {
  return msg_type == core::kMsgS2UpdateRequest ||
         msg_type == core::kMsgS2ReinitRequest;
}

Result<RequestPlan> Scheme2Adapter::Route(const net::Message& request,
                                          size_t num_shards) const {
  RequestPlan plan;
  switch (request.type) {
    case core::kMsgS2UpdateRequest: {
      S2UpdateRequest req;
      SSE_ASSIGN_OR_RETURN(req, S2UpdateRequest::FromMessage(request));
      ScatterByShard(&S2UpdateRequest::entries, std::move(req.entries),
                     EntryToken, num_shards, /*every_shard=*/false, plan);
      plan.documents = std::move(req.documents);
      return plan;
    }
    case core::kMsgS2SearchRequest: {
      S2SearchRequest req;
      SSE_ASSIGN_OR_RETURN(req, S2SearchRequest::FromMessage(request));
      plan.subs.push_back(
          SubRequest{ShardForToken(req.token, num_shards), request, {}});
      return plan;
    }
    case core::kMsgS2FetchAllRequest: {
      for (size_t s = 0; s < num_shards; ++s) {
        plan.subs.push_back(SubRequest{s, request, {}});
      }
      return plan;
    }
    case core::kMsgS2ReinitRequest: {
      S2ReinitRequest req;
      SSE_ASSIGN_OR_RETURN(req, S2ReinitRequest::FromMessage(request));
      // Every shard gets a (possibly empty) Reinit so all of them clear
      // their old-epoch index.
      ScatterByShard(&S2ReinitRequest::entries, std::move(req.entries),
                     EntryToken, num_shards, /*every_shard=*/true, plan);
      return plan;
    }
    default:
      plan.subs.push_back(SubRequest{0, request, {}});
      return plan;
  }
}

Result<net::Message> Scheme2Adapter::Merge(const net::Message& request,
                                           const RequestPlan& plan,
                                           std::vector<net::Message> replies,
                                           const DocumentFetcher& fetch_docs)
    const {
  (void)plan;
  switch (request.type) {
    case core::kMsgS2UpdateRequest:
      return SumAcks(replies, &S2UpdateAck::keywords_updated);
    case core::kMsgS2SearchRequest: {
      S2SearchResult result;
      SSE_ASSIGN_OR_RETURN(result, S2SearchResult::FromMessage(replies.at(0)));
      result.documents = fetch_docs(result.ids);
      return result.ToMessage();
    }
    case core::kMsgS2FetchAllRequest: {
      S2FetchAllReply merged;
      for (net::Message& reply : replies) {
        S2FetchAllReply part;
        SSE_ASSIGN_OR_RETURN(part, S2FetchAllReply::FromMessage(reply));
        for (auto& kw : part.keywords) merged.keywords.push_back(std::move(kw));
      }
      return merged.ToMessage();
    }
    case core::kMsgS2ReinitRequest:
      return SumAcks(replies, &S2ReinitAck::keywords);
    default:
      if (replies.size() != 1) {
        return Status::Internal("expected exactly one shard reply");
      }
      return std::move(replies[0]);
  }
}

}  // namespace sse::engine
