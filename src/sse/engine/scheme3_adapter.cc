#include "sse/engine/scheme3_adapter.h"

#include <any>
#include <utility>

#include "sse/core/scheme3_messages.h"
#include "sse/engine/shard_router.h"
#include "sse/index/posting.h"

namespace sse::engine {

using core::S3Probe;
using core::S3ProbeRequest;
using core::S3SearchRequest;
using core::S3SearchResult;
using core::S3UpdateAck;
using core::S3UpdateRequest;

Scheme3Adapter::Scheme3Adapter(const core::SchemeOptions& options)
    : options_(options), resume_(core::NewResumeCache(options)) {}

std::unique_ptr<SchemeShard> Scheme3Adapter::CreateShard() const {
  // Shards see probes, never a trapdoor: the resume cache is the adapter's.
  core::SchemeOptions shard_options = options_;
  shard_options.server_plaintext_cache = false;
  return std::make_unique<ServerShard<core::Scheme3Server>>(shard_options);
}

bool Scheme3Adapter::IsMutating(uint16_t msg_type) const {
  return msg_type == core::kMsgS3UpdateRequest;
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
      S3SearchRequest req;
      SSE_ASSIGN_OR_RETURN(req, S3SearchRequest::FromMessage(request));
      core::S3Walk walk;
      SSE_ASSIGN_OR_RETURN(walk, core::WalkTrapdoor(req, options_.chain_length,
                                                    resume_.get()));
      ScatterByShard(
          &S3ProbeRequest::probes, std::move(walk.probes),
          [](const S3Probe& p) -> BytesView { return p.address; }, num_shards,
          /*every_shard=*/false, plan);
      plan.merge_state = std::move(walk);
      return plan;
    }
    case core::kMsgS3ProbeRequest:
      return Status::InvalidArgument(
          "Scheme3.ProbeRequest is engine-internal; send a search request");
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
  switch (request.type) {
    case core::kMsgS3UpdateRequest:
      return SumAcks(replies, &S3UpdateAck::entries_added);
    case core::kMsgS3SearchRequest: {
      const auto* walk = std::any_cast<core::S3Walk>(&plan.merge_state);
      if (walk == nullptr) return Status::Internal("search plan has no walk");
      S3SearchResult merged;
      index::DocIdList ids;
      for (net::Message& reply : replies) {
        S3SearchResult part;
        SSE_ASSIGN_OR_RETURN(part, S3SearchResult::FromMessage(reply));
        merged.found = merged.found || part.found;
        merged.entries_decrypted += part.entries_decrypted;
        ids = index::MergeIdLists(ids, part.ids);
      }
      merged.ids = std::move(ids);
      core::FinishWalk(*walk, resume_.get(), merged);
      merged.documents = fetch_docs(merged.ids);
      return merged.ToMessage();
    }
    default:
      if (replies.size() != 1) {
        return Status::Internal("expected exactly one shard reply");
      }
      return std::move(replies[0]);
  }
}

void Scheme3Adapter::OnStateRestored() {
  if (resume_ != nullptr) resume_->Clear();
}

}  // namespace sse::engine
