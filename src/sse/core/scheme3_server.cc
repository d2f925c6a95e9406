#include "sse/core/scheme3_server.h"

#include <algorithm>
#include <utility>

#include "sse/core/segment.h"
#include "sse/crypto/hash_chain.h"

namespace sse::core {

std::unique_ptr<SearchCache> NewResumeCache(const SchemeOptions& options) {
  if (!options.server_plaintext_cache) return nullptr;
  return std::make_unique<SearchCache>(options.plaintext_cache_max_entries,
                                       "sse_s3_resume_cache",
                                       "Scheme 3 resume-cache");
}

Result<S3Walk> WalkTrapdoor(const S3SearchRequest& req, uint32_t chain_length,
                            SearchCache* cache) {
  if (req.chain_element.size() != crypto::kSha256DigestSize) {
    return Status::InvalidArgument("trapdoor chain element must be 32 bytes");
  }
  if (req.counter > chain_length) {
    return Status::InvalidArgument("trapdoor counter exceeds chain length");
  }
  S3Walk walk;
  walk.counter = req.counter;
  if (cache != nullptr) walk.generation = cache->generation();
  // Position c is k_c; each later one steps toward older keys, so updates
  // made after this trapdoor was released live at addresses of keys the
  // walk can never reach.
  crypto::Sha256Digest key;
  std::copy(req.chain_element.begin(), req.chain_element.end(), key.begin());
  for (uint32_t position = req.counter; position >= 1; --position) {
    if (position < req.counter) {
      SSE_ASSIGN_OR_RETURN(key, crypto::HashChain::Step(key));
      ++walk.chain_steps;
    }
    crypto::Sha256Digest address{};
    SSE_ASSIGN_OR_RETURN(address, crypto::HashChain::Tag(key));
    if (position == req.counter) walk.start = address;
    if (cache != nullptr) {
      SearchCache::Entry hit = cache->Find(address);
      if (hit.ids != nullptr && hit.count == position) {
        walk.resumed_ids = std::move(hit.ids);
        walk.resumed_at = position;
        walk.resumed_address = address;
        break;
      }
    }
    walk.probes.push_back(S3Probe{address, key});
  }
  return walk;
}

void FinishWalk(const S3Walk& walk, SearchCache* cache,
                S3SearchResult& result) {
  result.chain_steps = walk.chain_steps;
  if (walk.resumed_ids != nullptr) {
    result.found = true;
    result.ids = index::MergeIdLists(result.ids, *walk.resumed_ids);
  }
  const uint64_t probed = walk.counter - walk.resumed_at;
  if (cache != nullptr && probed > 0 && result.entries_decrypted == probed) {
    // The new answer supersedes the one the walk resumed from.
    const BytesView resumed_from = walk.resumed_ids != nullptr
                                       ? BytesView(walk.resumed_address)
                                       : BytesView();
    cache->Remember(walk.generation, walk.start, walk.counter, result.ids,
                    resumed_from, walk.resumed_at);
  }
}

Scheme3Server::Scheme3Server(const SchemeOptions& options)
    : options_(options), resume_(NewResumeCache(options)) {}

Result<net::Message> Scheme3Server::Handle(const net::Message& request) {
  switch (request.type) {
    case kMsgS3UpdateRequest:
      return HandleUpdate(request);
    case kMsgS3SearchRequest:
      return HandleSearch(request);
    case kMsgS3ProbeRequest: {
      S3ProbeRequest req;
      SSE_ASSIGN_OR_RETURN(req, S3ProbeRequest::FromMessage(request));
      S3SearchResult result;
      SSE_ASSIGN_OR_RETURN(result, Probe(req.probes));
      return result.ToMessage();
    }
    default:
      return Status::ProtocolError("scheme3 server: unexpected message " +
                                   net::MessageTypeName(request.type));
  }
}

Result<net::Message> Scheme3Server::HandleUpdate(const net::Message& msg) {
  S3UpdateRequest req;
  SSE_ASSIGN_OR_RETURN(req, S3UpdateRequest::FromMessage(msg));
  for (S3UpdateEntry& e : req.entries) {
    Bytes* existing = state_.index.GetMutable(e.address);
    if (existing == nullptr) {
      index_bytes_ += e.address.size() + e.ciphertext.size();
      state_.index.Put(e.address, std::move(e.ciphertext));
    } else {
      // A chain key is used for exactly one logical update, so a
      // duplicate address can only be a re-delivered update (e.g. a WAL
      // replay racing a reply-cache miss). Its plaintext is the same
      // delta; overwriting keeps updates idempotent.
      index_bytes_ += e.ciphertext.size();
      index_bytes_ -= existing->size();
      *existing = std::move(e.ciphertext);
    }
  }
  state_.docs.Put(std::move(req.documents));
  S3UpdateAck ack;
  ack.entries_added = req.entries.size();
  return ack.ToMessage();
}

Result<net::Message> Scheme3Server::HandleSearch(const net::Message& msg)
    const {
  S3SearchRequest req;
  SSE_ASSIGN_OR_RETURN(req, S3SearchRequest::FromMessage(msg));
  S3Walk walk;
  SSE_ASSIGN_OR_RETURN(walk,
                       WalkTrapdoor(req, options_.chain_length, resume_.get()));
  S3SearchResult result;
  SSE_ASSIGN_OR_RETURN(result, Probe(walk.probes));
  FinishWalk(walk, resume_.get(), result);
  total_chain_steps_.fetch_add(result.chain_steps, std::memory_order_relaxed);
  result.documents = state_.docs.Fetch(result.ids);
  return result.ToMessage();
}

Result<S3SearchResult> Scheme3Server::Probe(
    const std::vector<S3Probe>& probes) const {
  S3SearchResult result;
  index::DocIdList ids;
  for (const S3Probe& probe : probes) {
    const Bytes* segment = state_.index.Get(probe.address);
    if (segment == nullptr) continue;
    SSE_RETURN_IF_ERROR(OpenSegmentInto(probe.key, *segment, ids));
    ++result.entries_decrypted;
  }
  CanonicalizeTail(ids, 0);
  total_entries_decrypted_.fetch_add(result.entries_decrypted,
                                     std::memory_order_relaxed);
  result.found = result.entries_decrypted > 0;
  result.ids = std::move(ids);
  return result;
}

Status Scheme3Server::RestoreState(BytesView data) {
  SSE_RETURN_IF_ERROR(TokenIndexServer::RestoreState(data));
  if (resume_ != nullptr) resume_->Clear();
  return Status::OK();
}

uint64_t Scheme3Server::IndexBytes(const Bytes& address,
                                   const Bytes& ciphertext) const {
  return address.size() + ciphertext.size();
}

bool Scheme3Server::IsMutating(uint16_t msg_type) const {
  return msg_type == kMsgS3UpdateRequest;
}

}  // namespace sse::core
