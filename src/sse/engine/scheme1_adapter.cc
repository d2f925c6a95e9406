#include "sse/engine/scheme1_adapter.h"

#include <utility>

#include "sse/core/scheme1_messages.h"
#include "sse/engine/shard_router.h"

namespace sse::engine {

using core::S1NonceReply;
using core::S1NonceRequest;
using core::S1SearchFinish;
using core::S1SearchRequest;
using core::S1SearchResult;
using core::S1UpdateAck;
using core::S1UpdateRequest;

std::unique_ptr<SchemeShard> Scheme1Adapter::CreateShard() const {
  return std::make_unique<ServerShard<core::Scheme1Server>>(options_);
}

bool Scheme1Adapter::IsMutating(uint16_t msg_type) const {
  return msg_type == core::kMsgS1UpdateRequest;
}

LockMode Scheme1Adapter::LockModeFor(uint16_t msg_type) const {
  return msg_type == core::kMsgS1UpdateRequest ? LockMode::kExclusive
                                               : LockMode::kShared;
}

Result<RequestPlan> Scheme1Adapter::Route(const net::Message& request,
                                          size_t num_shards) const {
  RequestPlan plan;
  switch (request.type) {
    case core::kMsgS1NonceRequest: {
      S1NonceRequest req;
      SSE_ASSIGN_OR_RETURN(req, S1NonceRequest::FromMessage(request));
      ScatterByShard(
          &S1NonceRequest::tokens, std::move(req.tokens),
          [](const Bytes& token) -> BytesView { return token; }, num_shards,
          /*every_shard=*/false, plan);
      return plan;
    }
    case core::kMsgS1UpdateRequest: {
      S1UpdateRequest req;
      SSE_ASSIGN_OR_RETURN(req, S1UpdateRequest::FromMessage(request));
      ScatterByShard(
          &S1UpdateRequest::entries, std::move(req.entries),
          [](const core::S1UpdateEntry& e) -> BytesView { return e.token; },
          num_shards, /*every_shard=*/false, plan);
      plan.documents = std::move(req.documents);
      return plan;
    }
    case core::kMsgS1SearchRequest: {
      S1SearchRequest req;
      SSE_ASSIGN_OR_RETURN(req, S1SearchRequest::FromMessage(request));
      plan.subs.push_back(
          SubRequest{ShardForToken(req.token, num_shards), request, {}});
      return plan;
    }
    case core::kMsgS1SearchFinish: {
      S1SearchFinish req;
      SSE_ASSIGN_OR_RETURN(req, S1SearchFinish::FromMessage(request));
      plan.subs.push_back(
          SubRequest{ShardForToken(req.token, num_shards), request, {}});
      plan.attach_documents = true;
      return plan;
    }
    default:
      // Forward unrecognized messages to shard 0 so the scheme server
      // produces its canonical protocol error.
      plan.subs.push_back(SubRequest{0, request, {}});
      return plan;
  }
}

Result<net::Message> Scheme1Adapter::Merge(const net::Message& request,
                                           const RequestPlan& plan,
                                           std::vector<net::Message> replies,
                                           const DocumentFetcher& fetch_docs)
    const {
  switch (request.type) {
    case core::kMsgS1NonceRequest: {
      size_t total = 0;
      for (const SubRequest& sub : plan.subs) total += sub.positions.size();
      S1NonceReply merged;
      merged.entries.resize(total);
      for (size_t i = 0; i < plan.subs.size(); ++i) {
        S1NonceReply part;
        SSE_ASSIGN_OR_RETURN(part, S1NonceReply::FromMessage(replies[i]));
        if (part.entries.size() != plan.subs[i].positions.size()) {
          return Status::Internal("shard nonce reply misaligned with plan");
        }
        for (size_t j = 0; j < part.entries.size(); ++j) {
          merged.entries[plan.subs[i].positions[j]] =
              std::move(part.entries[j]);
        }
      }
      return merged.ToMessage();
    }
    case core::kMsgS1UpdateRequest:
      return SumAcks(replies, &S1UpdateAck::keywords_updated);
    case core::kMsgS1SearchFinish: {
      S1SearchResult result;
      SSE_ASSIGN_OR_RETURN(result, S1SearchResult::FromMessage(replies.at(0)));
      SSE_RETURN_IF_ERROR(
          AttachDocuments(fetch_docs, result.ids, result.documents));
      return result.ToMessage();
    }
    default:
      // Single-shard request/reply (search round 1, forwarded unknowns).
      if (replies.size() != 1) {
        return Status::Internal("expected exactly one shard reply");
      }
      return std::move(replies[0]);
  }
}

}  // namespace sse::engine
