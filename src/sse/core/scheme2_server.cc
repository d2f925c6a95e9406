#include "sse/core/scheme2_server.h"

#include "sse/core/segment.h"

namespace sse::core {

Scheme2Server::Scheme2Server(const SchemeOptions& options)
    : options_(options) {
  if (options_.server_plaintext_cache) {
    cache_ = std::make_unique<SearchCache>(options_.plaintext_cache_max_entries,
                                           "sse_s2_plaintext_cache",
                                           "Scheme 2 plaintext-cache");
  }
}

Result<net::Message> Scheme2Server::Handle(const net::Message& request) {
  switch (request.type) {
    case kMsgS2UpdateRequest:
      return HandleUpdate(request);
    case kMsgS2SearchRequest:
      return HandleSearch(request);
    case kMsgS2FetchAllRequest:
      return HandleFetchAll(request);
    case kMsgS2ReinitRequest:
      return HandleReinit(request);
    default:
      return Status::ProtocolError("scheme2 server: unexpected message " +
                                   net::MessageTypeName(request.type));
  }
}

Result<net::Message> Scheme2Server::HandleUpdate(const net::Message& msg) {
  S2UpdateRequest req;
  SSE_ASSIGN_OR_RETURN(req, S2UpdateRequest::FromMessage(msg));
  for (S2UpdateEntry& e : req.entries) {
    std::vector<S2Segment>* segments = state_.index.GetMutable(e.token);
    index_bytes_ += e.segment.ciphertext.size() + e.segment.tag.size();
    if (segments == nullptr) {
      index_bytes_ += e.token.size();
      std::vector<S2Segment> fresh;
      fresh.push_back(std::move(e.segment));
      state_.index.Put(e.token, std::move(fresh));
    } else {
      segments->push_back(std::move(e.segment));
    }
  }
  state_.docs.Put(std::move(req.documents));
  S2UpdateAck ack;
  ack.keywords_updated = req.entries.size();
  return ack.ToMessage();
}

Result<net::Message> Scheme2Server::HandleSearch(const net::Message& msg)
    const {
  S2SearchRequest req;
  SSE_ASSIGN_OR_RETURN(req, S2SearchRequest::FromMessage(msg));
  S2SearchResult result;

  const std::vector<S2Segment>* segments = state_.index.Get(req.token);
  if (segments == nullptr) {
    result.found = false;
    return result.ToMessage();
  }
  result.found = true;

  // Optimization 1: decrypt only the segments beyond the ones the cached
  // ids cover; without the cache (or a cached list), all of them.
  uint64_t generation = 0;
  SearchCache::Entry cached;
  if (cache_ != nullptr) {
    generation = cache_->generation();
    cached = cache_->Find(req.token);
  }
  const size_t start = cached.ids != nullptr ? cached.count : 0;
  index::DocIdList ids =
      cached.ids != nullptr ? *cached.ids : index::DocIdList{};

  SegmentWalk walk;
  const Status walked = WalkAndOpenSegments(
      req.chain_element, *segments, start, options_.chain_length, ids, walk);
  total_chain_steps_.fetch_add(walk.chain_steps, std::memory_order_relaxed);
  total_segments_decrypted_.fetch_add(walk.segments_opened,
                                      std::memory_order_relaxed);
  SSE_RETURN_IF_ERROR(walked);
  result.chain_steps = walk.chain_steps;
  result.segments_decrypted = walk.segments_opened;

  if (cache_ != nullptr && start < segments->size()) {
    cache_->Remember(generation, req.token, segments->size(), ids);
  }

  result.ids = std::move(ids);
  result.documents = state_.docs.Fetch(result.ids);
  return result.ToMessage();
}

Result<net::Message> Scheme2Server::HandleFetchAll(const net::Message& msg)
    const {
  S2FetchAllRequest req;
  SSE_ASSIGN_OR_RETURN(req, S2FetchAllRequest::FromMessage(msg));
  S2FetchAllReply reply;
  reply.keywords.reserve(state_.index.size());
  state_.index.ForEach([&](const Bytes& token,
                     const std::vector<S2Segment>& segments) {
    S2KeywordDump dump;
    dump.token = token;
    dump.segments = segments;
    reply.keywords.push_back(std::move(dump));
    return true;
  });
  return reply.ToMessage();
}

Result<net::Message> Scheme2Server::HandleReinit(const net::Message& msg) {
  S2ReinitRequest req;
  SSE_ASSIGN_OR_RETURN(req, S2ReinitRequest::FromMessage(msg));
  state_.index.Clear();
  if (cache_ != nullptr) cache_->Clear();
  index_bytes_ = 0;
  for (S2UpdateEntry& e : req.entries) {
    index_bytes_ +=
        e.token.size() + e.segment.ciphertext.size() + e.segment.tag.size();
    std::vector<S2Segment> fresh;
    fresh.push_back(std::move(e.segment));
    state_.index.Put(e.token, std::move(fresh));
  }
  S2ReinitAck ack;
  ack.keywords = req.entries.size();
  return ack.ToMessage();
}

Status Scheme2Server::RestoreState(BytesView data) {
  SSE_RETURN_IF_ERROR(TokenIndexServer::RestoreState(data));
  // The cache is soft state, never serialized: it starts over with the
  // restored index.
  if (cache_ != nullptr) cache_->Clear();
  return Status::OK();
}

uint64_t Scheme2Server::IndexBytes(
    const Bytes& token, const std::vector<S2Segment>& segments) const {
  uint64_t bytes = token.size();
  for (const S2Segment& seg : segments) {
    bytes += seg.ciphertext.size() + seg.tag.size();
  }
  return bytes;
}

bool Scheme2Server::IsMutating(uint16_t msg_type) const {
  return msg_type == kMsgS2UpdateRequest || msg_type == kMsgS2ReinitRequest;
}

}  // namespace sse::core
