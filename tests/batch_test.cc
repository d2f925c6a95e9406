// Batch envelope coverage: wire codec round-trips and rejection of
// malformed frames, engine fan-out with per-op replies, end-to-end
// equivalence of the batched client against the monolithic wire format,
// and the durable exactly-once guarantees — per-op dedup across full and
// partial envelope retries, including a WAL torn mid-batch by a crash.

#include "sse/net/batch.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sse/core/durable_server.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme1_messages.h"
#include "sse/core/scheme1_server.h"
#include "sse/core/scheme2_client.h"
#include "sse/engine/scheme1_adapter.h"
#include "sse/engine/scheme2_adapter.h"
#include "sse/engine/server_engine.h"
#include "sse/net/retry.h"
#include "sse/util/serde.h"
#include "test_util.h"

namespace sse {
namespace {

using ::sse::testing::EngineCounter;
using ::sse::testing::FastTestConfig;
using ::sse::testing::TempDir;
using ::sse::testing::TestMasterKey;

TEST(BatchCodecTest, RequestRoundTrip) {
  net::BatchRequest batch;
  batch.ops.push_back({101, 0x0101, Bytes{1, 2, 3}});
  batch.ops.push_back({102, 0x0203, Bytes{}});
  batch.ops.push_back({1ull << 40, 0xffff, Bytes{9}});
  const net::Message msg = batch.ToMessage();
  EXPECT_EQ(msg.type, net::kMsgBatch);

  auto decoded = net::BatchRequest::FromMessage(msg);
  SSE_ASSERT_OK_RESULT(decoded);
  ASSERT_EQ(decoded->ops.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded->ops[i].seq, batch.ops[i].seq);
    EXPECT_EQ(decoded->ops[i].type, batch.ops[i].type);
    EXPECT_EQ(decoded->ops[i].payload, batch.ops[i].payload);
  }
}

TEST(BatchCodecTest, ReplyRoundTrip) {
  net::BatchReply reply;
  reply.entries.push_back({0x0102, Bytes{4, 5}});
  reply.entries.push_back({net::kMsgError, Bytes{6}});
  const net::Message msg = reply.ToMessage();
  EXPECT_EQ(msg.type, net::kMsgBatchReply);

  auto decoded = net::BatchReply::FromMessage(msg);
  SSE_ASSERT_OK_RESULT(decoded);
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[0].type, 0x0102);
  EXPECT_EQ(decoded->entries[0].payload, (Bytes{4, 5}));
  EXPECT_EQ(decoded->entries[1].type, net::kMsgError);
}

TEST(BatchCodecTest, EmptyBatchRoundTrips) {
  auto request = net::BatchRequest::FromMessage(net::BatchRequest{}.ToMessage());
  SSE_ASSERT_OK_RESULT(request);
  EXPECT_TRUE(request->ops.empty());
  auto reply = net::BatchReply::FromMessage(net::BatchReply{}.ToMessage());
  SSE_ASSERT_OK_RESULT(reply);
  EXPECT_TRUE(reply->entries.empty());
}

TEST(BatchCodecTest, WrongMessageTypeRejected) {
  net::Message msg = net::BatchRequest{}.ToMessage();
  msg.type = net::kMsgError;
  EXPECT_FALSE(net::BatchRequest::FromMessage(msg).ok());
  net::Message reply = net::BatchReply{}.ToMessage();
  reply.type = net::kMsgBatch;
  EXPECT_FALSE(net::BatchReply::FromMessage(reply).ok());
}

TEST(BatchCodecTest, TruncatedPayloadRejected) {
  net::BatchRequest batch;
  batch.ops.push_back({7, 0x0101, Bytes{1, 2, 3, 4, 5, 6, 7, 8}});
  net::Message msg = batch.ToMessage();
  msg.payload.resize(msg.payload.size() - 3);
  EXPECT_FALSE(net::BatchRequest::FromMessage(msg).ok());
}

TEST(BatchCodecTest, AbsurdOpCountRejectedBeforeAllocation) {
  // A hostile frame claiming 2^40 ops must fail the plausibility check
  // (count > payload bytes), not attempt a giant reserve.
  BufferWriter w;
  w.PutVarint(1ull << 40);
  net::Message msg;
  msg.type = net::kMsgBatch;
  msg.payload = w.TakeData();
  EXPECT_FALSE(net::BatchRequest::FromMessage(msg).ok());
}

TEST(BatchCodecTest, TrailingGarbageRejected) {
  net::BatchRequest batch;
  batch.ops.push_back({1, 0x0101, Bytes{1}});
  net::Message msg = batch.ToMessage();
  msg.payload.push_back(0x00);
  EXPECT_FALSE(net::BatchRequest::FromMessage(msg).ok());
}

// ---------------------------------------------------------------------------
// Engine fan-out.

/// Engine with a few documents stored through a plain (monolithic) client.
struct LoadedEngine {
  LoadedEngine() : rng(31) {
    auto created = engine::ServerEngine::Create(
        std::make_unique<engine::Scheme1Adapter>(FastTestConfig().scheme),
        engine::EngineOptions{});
    EXPECT_TRUE(created.ok());
    engine = std::move(created).value();
    channel = std::make_unique<net::InProcessChannel>(engine.get());
    auto created_client = core::Scheme1Client::Create(
        TestMasterKey(), FastTestConfig().scheme, channel.get(), &rng);
    EXPECT_TRUE(created_client.ok());
    client = std::move(created_client).value();
    SSE_EXPECT_OK(client->Store(
        {core::Document::Make(1, "alpha text", {"alpha", "common"}),
         core::Document::Make(2, "beta text", {"beta", "common"})}));
  }

  /// A read-only op: update round 1, asking for each keyword's stored
  /// nonce (present only for keywords the Store above indexed).
  net::Message NonceOp(const std::vector<std::string>& keywords) const {
    core::S1NonceRequest req;
    for (const std::string& keyword : keywords) {
      req.tokens.push_back(client->Trapdoor(keyword).value());
    }
    return req.ToMessage();
  }

  DeterministicRandom rng;
  std::unique_ptr<engine::ServerEngine> engine;
  std::unique_ptr<net::InProcessChannel> channel;
  std::unique_ptr<core::Scheme1Client> client;
};

/// The per-keyword `present` flags of a batch entry holding a nonce reply.
std::vector<bool> PresentFlags(const net::BatchReply::Entry& entry) {
  EXPECT_EQ(entry.type, core::kMsgS1NonceReply);
  auto reply =
      core::S1NonceReply::FromMessage(net::Message{entry.type, entry.payload});
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  std::vector<bool> flags;
  if (reply.ok()) {
    for (const core::S1NonceEntry& e : reply->entries) {
      flags.push_back(e.present);
    }
  }
  return flags;
}

TEST(EngineBatchTest, FanOutReturnsAlignedPerOpReplies) {
  LoadedEngine loaded;
  const uint64_t batches_before = EngineCounter("batches");
  const uint64_t batch_ops_before = EngineCounter("batch_ops");
  net::BatchRequest batch;
  const net::Message known = loaded.NonceOp({"alpha"});
  const net::Message mixed = loaded.NonceOp({"missing", "beta"});
  batch.ops.push_back({10, known.type, known.payload});
  batch.ops.push_back({11, mixed.type, mixed.payload});
  // Garbage payload for a real message type: fails as an error ENTRY, not
  // as an envelope failure — its neighbors' outcomes stand.
  batch.ops.push_back({12, core::kMsgS1SearchRequest, Bytes{0xde, 0xad}});
  net::Message envelope = batch.ToMessage();
  envelope.StampSession(77, 1000);

  auto reply = loaded.engine->Handle(envelope);
  SSE_ASSERT_OK_RESULT(reply);
  EXPECT_EQ(reply->type, net::kMsgBatchReply);
  // The envelope's own session is echoed so a pipelined transport can
  // correlate the frame.
  EXPECT_TRUE(reply->has_session);
  EXPECT_EQ(reply->client_id, 77u);
  EXPECT_EQ(reply->seq, 1000u);

  auto decoded = net::BatchReply::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(decoded);
  ASSERT_EQ(decoded->entries.size(), 3u);
  EXPECT_EQ(PresentFlags(decoded->entries[0]), (std::vector<bool>{true}));
  EXPECT_EQ(PresentFlags(decoded->entries[1]),
            (std::vector<bool>{false, true}));
  EXPECT_EQ(decoded->entries[2].type, net::kMsgError);
  const net::Message bad{decoded->entries[2].type,
                         decoded->entries[2].payload};
  EXPECT_FALSE(net::DecodeErrorMessage(bad).ok());

  EXPECT_EQ(EngineCounter("batches") - batches_before, 1u);
  EXPECT_EQ(EngineCounter("batch_ops") - batch_ops_before, 3u);
}

TEST(EngineBatchTest, NestedEnvelopeRejectedPerOp) {
  LoadedEngine loaded;
  const net::Message op = loaded.NonceOp({"alpha"});
  net::BatchRequest inner;
  inner.ops.push_back({1, op.type, op.payload});
  const net::Message inner_msg = inner.ToMessage();

  net::BatchRequest batch;
  batch.ops.push_back({20, op.type, op.payload});
  batch.ops.push_back({21, net::kMsgBatch, inner_msg.payload});
  net::Message envelope = batch.ToMessage();
  envelope.StampSession(77, 2000);

  auto reply = loaded.engine->Handle(envelope);
  SSE_ASSERT_OK_RESULT(reply);
  auto decoded = net::BatchReply::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(decoded);
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(PresentFlags(decoded->entries[0]), (std::vector<bool>{true}));
  EXPECT_EQ(decoded->entries[1].type, net::kMsgError);
  const net::Message err{decoded->entries[1].type,
                         decoded->entries[1].payload};
  EXPECT_EQ(net::DecodeErrorMessage(err).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineBatchTest, MalformedEnvelopeFailsWhole) {
  LoadedEngine loaded;
  net::Message envelope;
  envelope.type = net::kMsgBatch;
  envelope.payload = Bytes{0xff, 0xff, 0xff};
  EXPECT_FALSE(loaded.engine->Handle(envelope).ok());
}

// ---------------------------------------------------------------------------
// End-to-end: the batched client against the monolithic wire format.

/// One system under each wire format, same key, same corpus.
template <typename Client, typename Adapter>
struct Pair {
  Pair() : plain_rng(7), batched_rng(7) {
    core::SchemeOptions plain_opts = FastTestConfig().scheme;
    core::SchemeOptions batched_opts = plain_opts;
    batched_opts.batch_ops = true;

    auto mk_engine = [](const core::SchemeOptions& o) {
      auto created = engine::ServerEngine::Create(
          std::make_unique<Adapter>(o), engine::EngineOptions{});
      EXPECT_TRUE(created.ok());
      return std::move(created).value();
    };
    plain_engine = mk_engine(plain_opts);
    batched_engine = mk_engine(batched_opts);

    plain_channel =
        std::make_unique<net::InProcessChannel>(plain_engine.get());
    batched_channel =
        std::make_unique<net::InProcessChannel>(batched_engine.get());
    net::RetryOptions retry_opts;
    retry_opts.batch_size = 8;
    retry_opts.max_inflight = 4;
    retry = std::make_unique<net::RetryingChannel>(batched_channel.get(),
                                                   retry_opts, &batched_rng);

    auto plain_created = Client::Create(TestMasterKey(), plain_opts,
                                        plain_channel.get(), &plain_rng);
    EXPECT_TRUE(plain_created.ok());
    plain = std::move(plain_created).value();
    auto batched_created =
        Client::Create(TestMasterKey(), batched_opts, retry.get(),
                       &batched_rng);
    EXPECT_TRUE(batched_created.ok());
    batched = std::move(batched_created).value();
  }

  DeterministicRandom plain_rng;
  DeterministicRandom batched_rng;
  std::unique_ptr<engine::ServerEngine> plain_engine;
  std::unique_ptr<engine::ServerEngine> batched_engine;
  std::unique_ptr<net::InProcessChannel> plain_channel;
  std::unique_ptr<net::InProcessChannel> batched_channel;
  std::unique_ptr<net::RetryingChannel> retry;
  std::unique_ptr<Client> plain;
  std::unique_ptr<Client> batched;
};

std::vector<core::Document> Corpus() {
  return {core::Document::Make(1, "alpha text", {"alpha", "common"}),
          core::Document::Make(2, "beta text", {"beta", "common"}),
          core::Document::Make(3, "gamma text", {"gamma"}),
          core::Document::Make(4, "delta text", {"delta", "alpha"})};
}

const std::vector<std::string>& Keywords() {
  static const std::vector<std::string> kws{
      "alpha", "beta", "gamma", "delta", "common", "missing"};
  return kws;
}

template <typename Client, typename Adapter>
void ExpectBatchedMatchesPlain() {
  Pair<Client, Adapter> pair;
  SSE_ASSERT_OK(pair.plain->Store(Corpus()));
  const uint64_t batches_before = EngineCounter("batches");
  SSE_ASSERT_OK(pair.batched->Store(Corpus()));
  // The batched store really used the batch path.
  EXPECT_GT(pair.retry->retry_stats().batches, 0u);
  EXPECT_GT(EngineCounter("batches"), batches_before);

  for (const std::string& kw : Keywords()) {
    auto plain_result = pair.plain->Search(kw);
    auto batched_result = pair.batched->Search(kw);
    SSE_ASSERT_OK_RESULT(plain_result);
    SSE_ASSERT_OK_RESULT(batched_result);
    EXPECT_EQ(plain_result->ids, batched_result->ids) << "keyword: " << kw;
  }

  // MultiSearch resolves every keyword in pipelined envelopes and returns
  // outcomes aligned with the input; they must match per-keyword searches.
  auto multi = pair.batched->MultiSearch(Keywords());
  SSE_ASSERT_OK_RESULT(multi);
  ASSERT_EQ(multi->size(), Keywords().size());
  for (size_t i = 0; i < Keywords().size(); ++i) {
    auto single = pair.plain->Search(Keywords()[i]);
    SSE_ASSERT_OK_RESULT(single);
    EXPECT_EQ((*multi)[i].ids, single->ids)
        << "keyword: " << Keywords()[i];
    EXPECT_EQ((*multi)[i].documents.size(), single->documents.size());
  }
}

TEST(BatchEndToEndTest, Scheme1BatchedClientMatchesMonolithic) {
  ExpectBatchedMatchesPlain<core::Scheme1Client, engine::Scheme1Adapter>();
}

TEST(BatchEndToEndTest, Scheme2BatchedClientMatchesMonolithic) {
  ExpectBatchedMatchesPlain<core::Scheme2Client, engine::Scheme2Adapter>();
}

TEST(BatchEndToEndTest, MultiSearchFallsBackWithoutBatchOps) {
  // batch_ops off: MultiSearch must still work (sequential Search loop).
  DeterministicRandom rng(41);
  auto created = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme1Adapter>(FastTestConfig().scheme),
      engine::EngineOptions{});
  SSE_ASSERT_OK_RESULT(created);
  net::InProcessChannel channel(created->get());
  auto client = core::Scheme1Client::Create(
      TestMasterKey(), FastTestConfig().scheme, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->Store(Corpus()));
  auto multi = (*client)->MultiSearch({"alpha", "missing", "common"});
  SSE_ASSERT_OK_RESULT(multi);
  ASSERT_EQ(multi->size(), 3u);
  EXPECT_EQ((*multi)[0].ids, (std::vector<uint64_t>{1, 4}));
  EXPECT_TRUE((*multi)[1].ids.empty());
  EXPECT_EQ((*multi)[2].ids, (std::vector<uint64_t>{1, 2}));
}

// ---------------------------------------------------------------------------
// Durable batches: group commit, recovery, per-op exactly-once.

TEST(DurableBatchTest, BatchedStoreSurvivesRestartViaWalReplay) {
  TempDir dir;
  DeterministicRandom rng(51);
  core::SchemeOptions options = FastTestConfig().scheme;
  options.batch_ops = true;

  {
    core::Scheme1Server inner(options);
    auto durable = core::DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    net::InProcessChannel channel(durable->get());
    net::RetryOptions retry_opts;
    retry_opts.batch_size = 8;
    net::RetryingChannel retry(&channel, retry_opts, &rng);
    auto client =
        core::Scheme1Client::Create(TestMasterKey(), options, &retry, &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK(
        (*client)->Store({core::Document::Make(0, "alpha", {"ka"}),
                          core::Document::Make(1, "beta", {"kb"})}));
    EXPECT_GT(retry.retry_stats().batches, 0u);
    EXPECT_GT((*durable)->wal_records(), 0u);
    // The whole update round cost at most a couple of group syncs, not one
    // fsync per journaled sub-op.
    EXPECT_LT((*durable)->wal_syncs(), (*durable)->wal_records());
  }

  // Recovery replays the individually journaled sub-ops.
  core::Scheme1Server inner(options);
  auto durable = core::DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);
  EXPECT_EQ(inner.document_count(), 2u);
  net::InProcessChannel channel(durable->get());
  DeterministicRandom rng2(52);
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), options, &channel, &rng2);
  SSE_ASSERT_OK_RESULT(client);
  auto outcome = (*client)->Search("ka");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0}));
}

/// Runs a batched two-keyword store against a durable Scheme 1 server and
/// returns the update-round kMsgBatch envelope exactly as it crossed the
/// wire (stamped, mutating sub-ops inside).
net::Message RecordUpdateEnvelope(const std::string& dir,
                                  core::Scheme1Server* inner,
                                  const core::SchemeOptions& options) {
  DeterministicRandom rng(61);
  auto durable = core::DurableServer::Open(dir, inner);
  EXPECT_TRUE(durable.ok());
  net::InProcessChannel::Options record;
  record.record_transcript = true;
  net::InProcessChannel channel(durable->get(), record);
  net::RetryOptions retry_opts;
  retry_opts.batch_size = 8;
  net::RetryingChannel retry(&channel, retry_opts, &rng);
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), options, &retry, &rng);
  EXPECT_TRUE(client.ok());
  SSE_EXPECT_OK((*client)->Store({core::Document::Make(0, "alpha", {"ka"}),
                                  core::Document::Make(1, "beta", {"kb"})}));
  net::Message envelope;
  for (const net::Exchange& ex : channel.transcript()) {
    if (ex.request.type != net::kMsgBatch) continue;
    auto batch = net::BatchRequest::FromMessage(ex.request);
    EXPECT_TRUE(batch.ok());
    if (!batch->ops.empty() &&
        batch->ops[0].type == core::kMsgS1UpdateRequest) {
      envelope = ex.request;
    }
  }
  EXPECT_EQ(envelope.type, net::kMsgBatch);
  EXPECT_TRUE(envelope.has_session);
  return envelope;
}

TEST(DurableBatchTest, RetriedEnvelopeDedupsEverySubOp) {
  TempDir dir;
  core::SchemeOptions options = FastTestConfig().scheme;
  options.batch_ops = true;
  core::Scheme1Server inner(options);
  const net::Message envelope =
      RecordUpdateEnvelope(dir.path(), &inner, options);

  // Replay the exact envelope against a recovered server: every mutating
  // sub-op is served from the reply cache, nothing is re-applied.
  core::Scheme1Server inner2(options);
  auto durable = core::DurableServer::Open(dir.path(), &inner2);
  SSE_ASSERT_OK_RESULT(durable);
  const uint64_t docs_before = inner2.document_count();
  const uint64_t wal_before = (*durable)->wal_records();
  auto reply = (*durable)->Handle(envelope);
  SSE_ASSERT_OK_RESULT(reply);
  auto decoded = net::BatchReply::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(decoded);
  for (const auto& entry : decoded->entries) {
    const net::Message op_reply{entry.type, entry.payload};
    SSE_EXPECT_OK(net::DecodeErrorMessage(op_reply));
  }
  EXPECT_EQ(inner2.document_count(), docs_before);
  EXPECT_EQ((*durable)->wal_records(), wal_before);  // nothing re-journaled
  ASSERT_NE((*durable)->reply_cache(), nullptr);
  EXPECT_GT((*durable)->reply_cache()->hits(), 0u);

  // A PARTIAL retry — a fresh envelope carrying a subset of the ops under
  // their original seqs, as the client sends after a torn batch — dedups
  // the same way.
  auto batch = net::BatchRequest::FromMessage(envelope);
  SSE_ASSERT_OK_RESULT(batch);
  ASSERT_GE(batch->ops.size(), 2u);
  net::BatchRequest partial;
  partial.ops.push_back(batch->ops[1]);
  net::Message partial_env = partial.ToMessage();
  partial_env.StampSession(envelope.client_id, envelope.seq + 1000);
  auto partial_reply = (*durable)->Handle(partial_env);
  SSE_ASSERT_OK_RESULT(partial_reply);
  EXPECT_EQ(inner2.document_count(), docs_before);
  EXPECT_EQ((*durable)->wal_records(), wal_before);
}

TEST(DurableBatchTest, TornBatchRetryAppliesEachSubOpExactlyOnce) {
  // Crash tears the WAL inside the batch: the last journaled sub-op record
  // is lost. A client retry of the WHOLE envelope (op seqs unchanged) must
  // re-execute only the torn sub-op; the surviving ones are served from
  // the recovered cache. The index then agrees with an honest client.
  TempDir dir;
  core::SchemeOptions options = FastTestConfig().scheme;
  options.batch_ops = true;
  core::Scheme1Server inner(options);
  const net::Message envelope =
      RecordUpdateEnvelope(dir.path(), &inner, options);

  // Tear into the tail record, as a crash mid-append would.
  const std::string wal_path = dir.path() + "/wal.000001.log";
  std::FILE* f = std::fopen(wal_path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size - 7), 0);
  std::fclose(f);

  core::Scheme1Server inner2(options);
  auto durable = core::DurableServer::Open(dir.path(), &inner2);
  SSE_ASSERT_OK_RESULT(durable);

  auto reply = (*durable)->Handle(envelope);
  SSE_ASSERT_OK_RESULT(reply);
  auto decoded = net::BatchReply::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(decoded);
  for (const auto& entry : decoded->entries) {
    const net::Message op_reply{entry.type, entry.payload};
    SSE_EXPECT_OK(net::DecodeErrorMessage(op_reply));
  }
  ASSERT_NE((*durable)->reply_cache(), nullptr);
  EXPECT_GT((*durable)->reply_cache()->hits(), 0u);  // survivors deduped

  // A second retry of the envelope is now fully cached.
  const uint64_t wal_after = (*durable)->wal_records();
  SSE_ASSERT_OK_RESULT((*durable)->Handle(envelope));
  EXPECT_EQ((*durable)->wal_records(), wal_after);
  EXPECT_EQ(inner2.document_count(), 2u);

  // Both keywords resolve: each sub-op's XOR delta was applied exactly
  // once despite the torn journal and the double retry.
  net::InProcessChannel channel(durable->get());
  DeterministicRandom rng(62);
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  auto ka = (*client)->Search("ka");
  SSE_ASSERT_OK_RESULT(ka);
  EXPECT_EQ(ka->ids, (std::vector<uint64_t>{0}));
  auto kb = (*client)->Search("kb");
  SSE_ASSERT_OK_RESULT(kb);
  EXPECT_EQ(kb->ids, (std::vector<uint64_t>{1}));
}

}  // namespace
}  // namespace sse
