#include "sse/core/scheme2_client.h"

#include <algorithm>

#include "sse/core/segment.h"
#include "sse/net/wire.h"

namespace sse::core {

namespace {
constexpr const char* kTokenLabel = "s2.token";
constexpr const char* kChainLabel = "s2.chain";
}  // namespace

Scheme2Client::Scheme2Client(crypto::Prf prf, DataCipher data,
                             const SchemeOptions& options,
                             net::Channel* channel, RandomSource* rng)
    : prf_(std::move(prf)),
      data_(std::move(data)),
      options_(options),
      channel_(channel),
      rng_(rng) {}

Result<std::unique_ptr<Scheme2Client>> Scheme2Client::Create(
    const crypto::MasterKey& key, const SchemeOptions& options,
    net::Channel* channel, RandomSource* rng) {
  if (channel == nullptr || rng == nullptr) {
    return Status::InvalidArgument("channel and rng must be non-null");
  }
  if (options.chain_length == 0) {
    return Status::InvalidArgument("chain_length must be > 0");
  }
  Result<crypto::Prf> prf = crypto::Prf::Create(key.keyword_key());
  if (!prf.ok()) return prf.status();
  Result<DataCipher> data = DataCipher::Create(key);
  if (!data.ok()) return data.status();
  return std::unique_ptr<Scheme2Client>(
      new Scheme2Client(std::move(prf).value(), std::move(data).value(),
                        options, channel, rng));
}

Result<Bytes> Scheme2Client::Token(std::string_view keyword) const {
  return prf_.EvalLabeled(kTokenLabel, StringToBytes(keyword));
}

Result<crypto::ChainCursor> Scheme2Client::NewCursor(BytesView token,
                                                     uint32_t epoch) const {
  BufferWriter w;
  w.PutU32(epoch);
  w.PutRaw(token);
  Bytes seed;
  SSE_ASSIGN_OR_RETURN(seed, prf_.EvalLabeled(kChainLabel, w.data()));
  return crypto::ChainCursor::Create(seed, options_.chain_length);
}

Result<Bytes> Scheme2Client::ChainKey(BytesView token, uint32_t ctr) const {
  const std::string hex = HexEncode(token);
  auto it = cursors_.find(hex);
  if (it == cursors_.end()) {
    Result<crypto::ChainCursor> cursor = NewCursor(token, state_.epoch);
    if (!cursor.ok()) return cursor.status();
    it = cursors_.emplace(hex, std::move(cursor).value()).first;
  }
  return it->second.KeyAt(ctr);
}

Result<Scheme2Client::Trapdoor> Scheme2Client::MakeTrapdoor(
    std::string_view keyword) const {
  Trapdoor t;
  SSE_ASSIGN_OR_RETURN(t.token, Token(keyword));
  // Before any counted update the chain is untouched; use the ctr=1
  // element, which is the deepest any future segment key can sit.
  const uint32_t effective_ctr = state_.ctr == 0 ? 1 : state_.ctr;
  SSE_ASSIGN_OR_RETURN(t.chain_element, ChainKey(t.token, effective_ctr));
  return t;
}

Result<uint32_t> Scheme2Client::NextUpdateCounter() {
  // Optimization 2: reuse the previous counter unless a search happened
  // since the last update (the server has not seen that key yet, so
  // reusing it leaks nothing and spends no chain element).
  const bool must_increment = !options_.counter_after_search_only ||
                              state_.searched_since_update || state_.ctr == 0;
  if (must_increment) {
    if (state_.ctr >= options_.chain_length) {
      return Status::ResourceExhausted("pseudo-random chain exhausted after " +
                                       std::to_string(state_.ctr) +
                                       " counted updates; call Reinitialize()");
    }
    ++state_.ctr;
    state_.searched_since_update = false;
  }
  return state_.ctr;
}

Status Scheme2Client::Store(const std::vector<Document>& docs) {
  if (docs.empty()) return Status::OK();
  SSE_RETURN_IF_ERROR(state_.used_ids.CheckFresh(docs));
  SSE_RETURN_IF_ERROR(RunUpdateProtocol(GroupByKeyword(docs), docs));
  state_.used_ids.Add(docs);
  return Status::OK();
}

Status Scheme2Client::FakeUpdate(const std::vector<std::string>& keywords) {
  return RunUpdateProtocol(PerKeyword(keywords, /*ids=*/{}),
                           /*documents=*/{});
}

Status Scheme2Client::RunUpdateProtocol(
    const std::vector<KeywordUpdate>& updates,
    const std::vector<Document>& documents) {
  uint32_t update_ctr = 0;
  SSE_ASSIGN_OR_RETURN(update_ctr, NextUpdateCounter());
  std::vector<S2UpdateEntry> entries;
  entries.reserve(updates.size());
  for (const KeywordUpdate& u : updates) {
    S2UpdateEntry entry;
    SSE_ASSIGN_OR_RETURN(entry.token, Token(u.keyword));
    Bytes key;
    SSE_ASSIGN_OR_RETURN(key, ChainKey(entry.token, update_ctr));
    SSE_ASSIGN_OR_RETURN(entry.segment, SealSegment(key, u.ids, *rng_));
    entries.push_back(std::move(entry));
  }
  std::vector<WireDocument> wire_docs;
  SSE_ASSIGN_OR_RETURN(wire_docs, data_.SealAll(documents, *rng_));
  return SendUpdateRound<S2UpdateRequest>(*channel_, options_.batch_ops,
                                          std::move(entries),
                                          std::move(wire_docs),
                                          &S2UpdateAck::keywords_updated);
}

Result<SearchOutcome> Scheme2Client::Search(std::string_view keyword) {
  Trapdoor trapdoor;
  SSE_ASSIGN_OR_RETURN(trapdoor, MakeTrapdoor(keyword));
  S2SearchRequest req;
  req.token = std::move(trapdoor.token);
  req.chain_element = std::move(trapdoor.chain_element);

  net::Message reply_msg;
  SSE_ASSIGN_OR_RETURN(reply_msg, channel_->Call(req.ToMessage()));
  state_.searched_since_update = true;
  return ParseSearchResult(reply_msg);
}

Result<SearchOutcome> Scheme2Client::ParseSearchResult(
    const net::Message& msg) {
  S2SearchResult result;
  SSE_ASSIGN_OR_RETURN(result, S2SearchResult::FromMessage(msg));
  last_chain_steps_ = result.chain_steps;
  last_segments_ = result.segments_decrypted;

  SearchOutcome outcome;
  if (!result.found) return outcome;
  outcome.ids = result.ids;
  std::sort(outcome.ids.begin(), outcome.ids.end());
  SSE_RETURN_IF_ERROR(data_.OpenAll(result.documents, outcome));
  return outcome;
}

Result<std::vector<SearchOutcome>> Scheme2Client::MultiSearch(
    const std::vector<std::string>& keywords) {
  if (!options_.batch_ops) return SseClientInterface::MultiSearch(keywords);
  const size_t n = keywords.size();
  std::vector<SearchOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // Scheme 2 searches are one round, so all K fit in a single MultiCall.
  std::vector<net::Message> round;
  round.reserve(n);
  for (const std::string& keyword : keywords) {
    Trapdoor trapdoor;
    SSE_ASSIGN_OR_RETURN(trapdoor, MakeTrapdoor(keyword));
    S2SearchRequest req;
    req.token = std::move(trapdoor.token);
    req.chain_element = std::move(trapdoor.chain_element);
    round.push_back(req.ToMessage());
  }
  std::vector<Result<net::Message>> replies = channel_->MultiCall(round);
  state_.searched_since_update = true;
  for (size_t i = 0; i < n; ++i) {
    if (!replies[i].ok()) return replies[i].status();
    SSE_ASSIGN_OR_RETURN(outcomes[i], ParseSearchResult(*replies[i]));
  }
  return outcomes;
}

Bytes Scheme2Client::SerializeState() const {
  return net::wire::Serialize(state_);
}

Status Scheme2Client::RestoreState(BytesView data) {
  State state;
  SSE_ASSIGN_OR_RETURN(state, net::wire::Parse<State>(data));
  if (state.ctr > options_.chain_length) {
    return Status::Corruption("restored counter exceeds chain length");
  }
  state_ = std::move(state);
  cursors_.clear();  // memoized positions may postdate the restored state
  return Status::OK();
}

Status Scheme2Client::Reinitialize() {
  // Round 1: download every keyword's segments.
  net::Message reply_msg;
  SSE_ASSIGN_OR_RETURN(reply_msg,
                       channel_->Call(S2FetchAllRequest{}.ToMessage()));
  S2FetchAllReply dump;
  SSE_ASSIGN_OR_RETURN(dump, S2FetchAllReply::FromMessage(reply_msg));

  // Open and merge every keyword's segments locally, exactly as the server
  // would on a search, using the current epoch's chains; then seal the
  // merged list as the single first segment (counter 1) of the next epoch.
  const uint32_t old_ctr = state_.ctr == 0 ? 1 : state_.ctr;
  const uint32_t new_epoch = state_.epoch + 1;

  S2ReinitRequest reinit;
  reinit.entries.reserve(dump.keywords.size());
  for (const S2KeywordDump& kw : dump.keywords) {
    Bytes start;
    SSE_ASSIGN_OR_RETURN(start, ChainKey(kw.token, old_ctr));
    index::DocIdList ids;
    SegmentWalk walk;
    SSE_RETURN_IF_ERROR(WalkAndOpenSegments(
        start, kw.segments, /*start=*/0, options_.chain_length, ids, walk));

    Result<crypto::ChainCursor> fresh = NewCursor(kw.token, new_epoch);
    if (!fresh.ok()) return fresh.status();
    Bytes key;
    SSE_ASSIGN_OR_RETURN(key, fresh->KeyAt(1));
    S2UpdateEntry entry;
    entry.token = kw.token;
    SSE_ASSIGN_OR_RETURN(entry.segment, SealSegment(key, ids, *rng_));
    reinit.entries.push_back(std::move(entry));
  }

  // Round 2: atomically replace the keyword index.
  net::Message ack_msg;
  SSE_ASSIGN_OR_RETURN(ack_msg, channel_->Call(reinit.ToMessage()));
  S2ReinitAck ack;
  SSE_ASSIGN_OR_RETURN(ack, S2ReinitAck::FromMessage(ack_msg));
  if (ack.keywords != reinit.entries.size()) {
    return Status::ProtocolError("reinit acknowledged wrong keyword count");
  }

  state_.epoch = new_epoch;
  state_.ctr = reinit.entries.empty() ? 0 : 1;
  // The next update must take a fresh element.
  state_.searched_since_update = true;
  cursors_.clear();  // old-epoch chains are dead weight
  return Status::OK();
}

}  // namespace sse::core
