#include "sse/core/scheme3_client.h"

#include <algorithm>

#include "sse/core/segment.h"
#include "sse/net/wire.h"

namespace sse::core {

namespace {
constexpr const char* kTokenLabel = "s3.token";
constexpr const char* kChainLabel = "s3.chain";
}  // namespace

Scheme3Client::Scheme3Client(crypto::Prf prf, DataCipher data,
                             const SchemeOptions& options,
                             net::Channel* channel, RandomSource* rng)
    : prf_(std::move(prf)),
      data_(std::move(data)),
      options_(options),
      channel_(channel),
      rng_(rng) {}

Result<std::unique_ptr<Scheme3Client>> Scheme3Client::Create(
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
  return std::unique_ptr<Scheme3Client>(
      new Scheme3Client(std::move(prf).value(), std::move(data).value(),
                        options, channel, rng));
}

Result<Bytes> Scheme3Client::Token(std::string_view keyword) const {
  // Never leaves the client: it only seeds the per-keyword chain.
  return prf_.EvalLabeled(kTokenLabel, StringToBytes(keyword));
}

Result<Bytes> Scheme3Client::ChainKey(const Bytes& token,
                                      KeywordState& state) const {
  if (!state.cursor.has_value()) {
    Bytes seed;
    SSE_ASSIGN_OR_RETURN(seed, prf_.EvalLabeled(kChainLabel, token));
    Result<crypto::ChainCursor> cursor =
        crypto::ChainCursor::Create(seed, options_.chain_length);
    if (!cursor.ok()) return cursor.status();
    state.cursor = std::move(cursor).value();
  }
  return state.cursor->KeyAt(state.ctr);
}

Result<Scheme3Client::Trapdoor> Scheme3Client::MakeTrapdoor(
    std::string_view keyword) const {
  Bytes token;
  SSE_ASSIGN_OR_RETURN(token, Token(keyword));
  KeywordState& state = state_.keywords[token];
  if (state.ctr == 0) {
    return Status::FailedPrecondition(
        "keyword has no updates; nothing to release");
  }
  Trapdoor t;
  t.counter = state.ctr;
  SSE_ASSIGN_OR_RETURN(t.chain_element, ChainKey(token, state));
  return t;
}

Result<uint32_t> Scheme3Client::counter(std::string_view keyword) const {
  Bytes token;
  SSE_ASSIGN_OR_RETURN(token, Token(keyword));
  return state_.keywords[token].ctr;
}

Status Scheme3Client::Store(const std::vector<Document>& docs) {
  if (docs.empty()) return Status::OK();
  SSE_RETURN_IF_ERROR(state_.used_ids.CheckFresh(docs));
  SSE_RETURN_IF_ERROR(RunUpdateProtocol(GroupByKeyword(docs), docs));
  state_.used_ids.Add(docs);
  return Status::OK();
}

Status Scheme3Client::FakeUpdate(const std::vector<std::string>& keywords) {
  return RunUpdateProtocol(PerKeyword(keywords, /*ids=*/{}),
                           /*documents=*/{});
}

Status Scheme3Client::RunUpdateProtocol(
    const std::vector<KeywordUpdate>& updates,
    const std::vector<Document>& documents) {
  std::vector<S3UpdateEntry> entries;
  entries.reserve(updates.size());
  for (const KeywordUpdate& u : updates) {
    Bytes token;
    SSE_ASSIGN_OR_RETURN(token, Token(u.keyword));
    KeywordState& state = state_.keywords[token];
    if (state.ctr >= options_.chain_length) {
      return Status::ResourceExhausted(
          "keyword's forward-private chain exhausted after " +
          std::to_string(state.ctr) + " updates");
    }
    // Burn the counter now: an ambiguous failure below may still have
    // applied server-side, and reusing it with different content would
    // shadow the stored entry.
    ++state.ctr;
    Bytes key;
    SSE_ASSIGN_OR_RETURN(key, ChainKey(token, state));
    S2Segment sealed;
    SSE_ASSIGN_OR_RETURN(sealed, SealSegment(key, u.ids, *rng_));
    entries.push_back(
        S3UpdateEntry{std::move(sealed.tag), std::move(sealed.ciphertext)});
  }
  std::vector<WireDocument> wire_docs;
  SSE_ASSIGN_OR_RETURN(wire_docs, data_.SealAll(documents, *rng_));
  return SendUpdateRound<S3UpdateRequest>(*channel_, options_.batch_ops,
                                          std::move(entries),
                                          std::move(wire_docs),
                                          &S3UpdateAck::entries_added);
}

Result<SearchOutcome> Scheme3Client::Search(std::string_view keyword) {
  Bytes token;
  SSE_ASSIGN_OR_RETURN(token, Token(keyword));
  KeywordState& state = state_.keywords[token];
  if (state.ctr == 0) {
    // Never updated: nothing searchable exists and no trapdoor need be
    // released (a keyword the server has never seen stays unseen).
    last_chain_steps_ = 0;
    last_entries_ = 0;
    return SearchOutcome{};
  }
  S3SearchRequest req;
  req.counter = state.ctr;
  SSE_ASSIGN_OR_RETURN(req.chain_element, ChainKey(token, state));

  net::Message reply_msg;
  SSE_ASSIGN_OR_RETURN(reply_msg, channel_->Call(req.ToMessage()));
  return ParseSearchResult(reply_msg);
}

Result<SearchOutcome> Scheme3Client::ParseSearchResult(
    const net::Message& msg) {
  S3SearchResult result;
  SSE_ASSIGN_OR_RETURN(result, S3SearchResult::FromMessage(msg));
  last_chain_steps_ = result.chain_steps;
  last_entries_ = result.entries_decrypted;

  SearchOutcome outcome;
  if (!result.found) return outcome;
  outcome.ids = result.ids;
  std::sort(outcome.ids.begin(), outcome.ids.end());
  SSE_RETURN_IF_ERROR(data_.OpenAll(result.documents, outcome));
  return outcome;
}

Result<std::vector<SearchOutcome>> Scheme3Client::MultiSearch(
    const std::vector<std::string>& keywords) {
  if (!options_.batch_ops) return SseClientInterface::MultiSearch(keywords);
  const size_t n = keywords.size();
  std::vector<SearchOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // One round: never-updated keywords resolve locally (empty outcome), the
  // rest pipeline through a single MultiCall.
  std::vector<net::Message> round;
  std::vector<size_t> positions;  // round[i] answers keywords[positions[i]]
  for (size_t i = 0; i < n; ++i) {
    Bytes token;
    SSE_ASSIGN_OR_RETURN(token, Token(keywords[i]));
    KeywordState& state = state_.keywords[token];
    if (state.ctr == 0) continue;
    S3SearchRequest req;
    req.counter = state.ctr;
    SSE_ASSIGN_OR_RETURN(req.chain_element, ChainKey(token, state));
    round.push_back(req.ToMessage());
    positions.push_back(i);
  }
  if (round.empty()) return outcomes;
  std::vector<Result<net::Message>> replies = channel_->MultiCall(round);
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].ok()) return replies[i].status();
    SSE_ASSIGN_OR_RETURN(outcomes[positions[i]],
                         ParseSearchResult(*replies[i]));
  }
  return outcomes;
}

Bytes Scheme3Client::SerializeState() const {
  return net::wire::Serialize(state_);
}

Status Scheme3Client::RestoreState(BytesView data) {
  State state;
  SSE_ASSIGN_OR_RETURN(state, net::wire::Parse<State>(data));
  for (const auto& [token, keyword] : state.keywords) {
    if (keyword.ctr > options_.chain_length) {
      return Status::Corruption("restored counter exceeds chain length");
    }
  }
  state_ = std::move(state);  // cursors reset with the map
  return Status::OK();
}

}  // namespace sse::core
