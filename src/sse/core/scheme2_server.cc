#include "sse/core/scheme2_server.h"

#include "sse/core/segment.h"
#include "sse/util/serde.h"

namespace sse::core {

namespace {

obs::MetricsRegistry::Counter* CacheEvictionsCounter() {
  static auto* c = obs::MetricsRegistry::Global().GetCounter(
      "sse_s2_plaintext_cache_evictions_total",
      "Scheme 2 plaintext-cache entries dropped by the LRU bound");
  return c;
}

}  // namespace

Scheme2Server::Scheme2Server(const SchemeOptions& options)
    : options_(options) {
  CacheEvictionsCounter();  // listed from the first scrape on
  registrations_.push_back(obs::MetricsRegistry::Global().RegisterGauge(
      "sse_s2_plaintext_cache_entries",
      [this] {
        return static_cast<double>(
            cache_entries_.load(std::memory_order_relaxed));
      },
      "Scheme 2 keywords currently holding a decrypted posting-list cache"));
}

void Scheme2Server::TouchPlaintextCache(const Bytes& token) {
  if (options_.plaintext_cache_max_entries == 0) return;
  auto pos = cache_pos_.find(token);
  if (pos != cache_pos_.end()) {
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, pos->second);
  } else {
    cache_lru_.push_front(token);
    cache_pos_[token] = cache_lru_.begin();
  }
  while (cache_pos_.size() > options_.plaintext_cache_max_entries) {
    const Bytes victim = cache_lru_.back();
    if (Entry* evicted = index_.GetMutable(victim)) {
      // Soft state only: the segments stay; the next search of this
      // keyword decrypts them all again instead of the cached suffix.
      evicted->cached_ids.clear();
      evicted->cached_ids.shrink_to_fit();
      evicted->cached_segments = 0;
    }
    cache_pos_.erase(victim);
    cache_lru_.pop_back();
    cache_evictions_.fetch_add(1, std::memory_order_relaxed);
    CacheEvictionsCounter()->Add();
  }
  cache_entries_.store(cache_pos_.size(), std::memory_order_relaxed);
}

void Scheme2Server::ResetPlaintextCacheLru() {
  cache_lru_.clear();
  cache_pos_.clear();
  cache_entries_.store(0, std::memory_order_relaxed);
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
    Entry* entry = index_.GetMutable(e.token);
    index_bytes_ += e.segment.ciphertext.size() + e.segment.tag.size();
    if (entry == nullptr) {
      Entry fresh;
      fresh.segments.push_back(std::move(e.segment));
      index_bytes_ += e.token.size();
      index_.Put(e.token, std::move(fresh));
    } else {
      entry->segments.push_back(std::move(e.segment));
    }
  }
  for (const WireDocument& doc : req.documents) {
    docs_.Put(doc.id, doc.ciphertext);
  }
  S2UpdateAck ack;
  ack.keywords_updated = req.entries.size();
  return ack.ToMessage();
}

Result<net::Message> Scheme2Server::HandleSearch(const net::Message& msg) {
  S2SearchRequest req;
  SSE_ASSIGN_OR_RETURN(req, S2SearchRequest::FromMessage(msg));
  S2SearchResult result;

  Entry* entry = index_.GetMutable(req.token);
  if (entry == nullptr) {
    result.found = false;
    return result.ToMessage();
  }
  result.found = true;

  // Decide which segments still need decryption (Optimization 1: the ones
  // beyond the plaintext cache; without the cache, all of them).
  const size_t start =
      options_.server_plaintext_cache ? entry->cached_segments : 0;
  index::DocIdList ids = options_.server_plaintext_cache
                             ? entry->cached_ids
                             : index::DocIdList{};

  SegmentWalk walk;
  const Status walked =
      WalkAndOpenSegments(req.chain_element, entry->segments, start,
                          options_.chain_length, ids, walk);
  total_chain_steps_ += walk.chain_steps;
  total_segments_decrypted_ += walk.segments_opened;
  SSE_RETURN_IF_ERROR(walked);
  result.chain_steps = walk.chain_steps;
  result.segments_decrypted = walk.segments_opened;

  if (options_.server_plaintext_cache) {
    entry->cached_ids = ids;
    entry->cached_segments = entry->segments.size();
    TouchPlaintextCache(req.token);
  }

  result.ids = std::move(ids);
  std::vector<std::pair<uint64_t, Bytes>> fetched = docs_.GetMany(result.ids);
  for (const auto& [id, blob] : fetched) {
    result.documents.push_back(WireDocument{id, blob});
  }
  return result.ToMessage();
}

Result<net::Message> Scheme2Server::HandleFetchAll(const net::Message& msg) {
  S2FetchAllRequest req;
  SSE_ASSIGN_OR_RETURN(req, S2FetchAllRequest::FromMessage(msg));
  S2FetchAllReply reply;
  reply.keywords.reserve(index_.size());
  index_.ForEach([&](const Bytes& token, const Entry& entry) {
    S2KeywordDump dump;
    dump.token = token;
    dump.segments = entry.segments;
    reply.keywords.push_back(std::move(dump));
    return true;
  });
  return reply.ToMessage();
}

Result<net::Message> Scheme2Server::HandleReinit(const net::Message& msg) {
  S2ReinitRequest req;
  SSE_ASSIGN_OR_RETURN(req, S2ReinitRequest::FromMessage(msg));
  index_.Clear();
  ResetPlaintextCacheLru();
  index_bytes_ = 0;
  for (S2UpdateEntry& e : req.entries) {
    Entry fresh;
    index_bytes_ +=
        e.token.size() + e.segment.ciphertext.size() + e.segment.tag.size();
    fresh.segments.push_back(std::move(e.segment));
    index_.Put(e.token, std::move(fresh));
  }
  S2ReinitAck ack;
  ack.keywords = req.entries.size();
  return ack.ToMessage();
}

Result<Bytes> Scheme2Server::SerializeState() const {
  BufferWriter w;
  w.PutVarint(index_.size());
  index_.ForEach([&](const Bytes& token, const Entry& entry) {
    w.PutBytes(token);
    w.PutVarint(entry.segments.size());
    for (const S2Segment& seg : entry.segments) {
      w.PutBytes(seg.ciphertext);
      w.PutBytes(seg.tag);
    }
    return true;
  });
  w.PutVarint(docs_.size());
  docs_.ForEach([&](uint64_t id, const Bytes& blob) {
    w.PutVarint(id);
    w.PutBytes(blob);
    return true;
  });
  return w.TakeData();
}

Status Scheme2Server::RestoreState(BytesView data) {
  TokenMap<Entry> index;
  storage::DocumentStore docs;
  uint64_t index_bytes = 0;

  BufferReader r(data);
  uint64_t keyword_count = 0;
  SSE_ASSIGN_OR_RETURN(keyword_count, r.GetVarint());
  for (uint64_t i = 0; i < keyword_count; ++i) {
    Bytes token;
    SSE_ASSIGN_OR_RETURN(token, r.GetBytes());
    uint64_t seg_count = 0;
    SSE_ASSIGN_OR_RETURN(seg_count, r.GetVarint());
    if (seg_count > r.remaining()) {
      return Status::Corruption("segment count exceeds payload");
    }
    Entry entry;
    entry.segments.reserve(static_cast<size_t>(seg_count));
    index_bytes += token.size();
    for (uint64_t j = 0; j < seg_count; ++j) {
      S2Segment seg;
      SSE_ASSIGN_OR_RETURN(seg.ciphertext, r.GetBytes());
      SSE_ASSIGN_OR_RETURN(seg.tag, r.GetBytes());
      index_bytes += seg.ciphertext.size() + seg.tag.size();
      entry.segments.push_back(std::move(seg));
    }
    index.Put(token, std::move(entry));
  }
  uint64_t doc_count = 0;
  SSE_ASSIGN_OR_RETURN(doc_count, r.GetVarint());
  for (uint64_t i = 0; i < doc_count; ++i) {
    uint64_t id = 0;
    SSE_ASSIGN_OR_RETURN(id, r.GetVarint());
    Bytes blob;
    SSE_ASSIGN_OR_RETURN(blob, r.GetBytes());
    docs.Put(id, std::move(blob));
  }
  SSE_RETURN_IF_ERROR(r.ExpectEnd());

  index_ = std::move(index);
  docs_ = std::move(docs);
  index_bytes_ = index_bytes;
  // The restored entries carry no plaintext caches (they are soft state,
  // never serialized), so the LRU starts over with them.
  ResetPlaintextCacheLru();
  return Status::OK();
}

bool Scheme2Server::IsMutating(uint16_t msg_type) const {
  return msg_type == kMsgS2UpdateRequest || msg_type == kMsgS2ReinitRequest;
}

}  // namespace sse::core
