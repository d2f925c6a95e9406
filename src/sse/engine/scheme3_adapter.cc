#include "sse/engine/scheme3_adapter.h"

#include <utility>

#include "sse/core/scheme3_messages.h"
#include "sse/engine/shard_router.h"
#include "sse/index/posting.h"

namespace sse::engine {

using core::S3SearchRequest;
using core::S3SearchResult;
using core::S3UpdateAck;
using core::S3UpdateRequest;

std::unique_ptr<SchemeShard> Scheme3Adapter::CreateShard() const {
  return std::make_unique<ServerShard<core::Scheme3Server>>(options_);
}

bool Scheme3Adapter::IsMutating(uint16_t msg_type) const {
  return msg_type == core::kMsgS3UpdateRequest;
}

LockMode Scheme3Adapter::LockModeFor(uint16_t msg_type) const {
  // Searches are read-only (no plaintext cache to refresh); everything
  // that writes is the update.
  return msg_type == core::kMsgS3UpdateRequest ? LockMode::kExclusive
                                               : LockMode::kShared;
}

Result<RequestPlan> Scheme3Adapter::Route(const net::Message& request,
                                          size_t num_shards) const {
  RequestPlan plan;
  switch (request.type) {
    case core::kMsgS3UpdateRequest: {
      S3UpdateRequest req;
      SSE_ASSIGN_OR_RETURN(req, S3UpdateRequest::FromMessage(request));
      ScatterByShard(
          &S3UpdateRequest::entries, std::move(req.entries),
          [](const core::S3UpdateEntry& e) -> BytesView { return e.address; },
          num_shards, /*every_shard=*/false, plan);
      plan.documents = std::move(req.documents);
      return plan;
    }
    case core::kMsgS3SearchRequest: {
      // The trapdoor has no routable token, and a keyword's entries are
      // scattered: every shard walks the chain over its own slice.
      for (size_t s = 0; s < num_shards; ++s) {
        plan.subs.push_back(SubRequest{s, request, {}});
      }
      plan.attach_documents = true;
      return plan;
    }
    default:
      plan.subs.push_back(SubRequest{0, request, {}});
      return plan;
  }
}

Result<net::Message> Scheme3Adapter::Merge(const net::Message& request,
                                           const RequestPlan& plan,
                                           std::vector<net::Message> replies,
                                           const DocumentFetcher& fetch_docs)
    const {
  (void)plan;
  switch (request.type) {
    case core::kMsgS3UpdateRequest:
      return SumAcks(replies, &S3UpdateAck::entries_added);
    case core::kMsgS3SearchRequest: {
      S3SearchResult merged;
      index::DocIdList ids;
      for (net::Message& reply : replies) {
        S3SearchResult part;
        SSE_ASSIGN_OR_RETURN(part, S3SearchResult::FromMessage(reply));
        merged.found = merged.found || part.found;
        merged.chain_steps += part.chain_steps;
        merged.entries_decrypted += part.entries_decrypted;
        ids = index::MergeIdLists(ids, part.ids);
      }
      merged.ids = std::move(ids);
      SSE_RETURN_IF_ERROR(
          AttachDocuments(fetch_docs, merged.ids, merged.documents));
      return merged.ToMessage();
    }
    default:
      if (replies.size() != 1) {
        return Status::Internal("expected exactly one shard reply");
      }
      return std::move(replies[0]);
  }
}

}  // namespace sse::engine
