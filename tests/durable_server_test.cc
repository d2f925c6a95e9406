#include "sse/core/durable_server.h"

#include <gtest/gtest.h>

#include "sse/core/registry.h"
#include "sse/core/scheme1_messages.h"
#include "sse/core/scheme1_server.h"
#include "sse/core/scheme2_server.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme2_client.h"
#include "sse/engine/scheme2_adapter.h"
#include "sse/engine/server_engine.h"
#include "sse/net/batch.h"
#include "sse/net/retry.h"
#include "sse/obs/metrics_registry.h"
#include "sse/repl/failover_channel.h"
#include "sse/storage/faulty_env.h"
#include "sse/storage/snapshot.h"
#include "test_util.h"

namespace sse::core {
namespace {

using sse::testing::FastTestConfig;
using sse::testing::TempDir;
using sse::testing::TestMasterKey;

TEST(DurableServerTest, Scheme1SurvivesRestartViaWalReplay) {
  TempDir dir;
  DeterministicRandom rng(1);
  const SchemeOptions options = FastTestConfig().scheme;

  // Session 1: store documents, no checkpoint, "crash".
  {
    Scheme1Server inner(options);
    auto durable = DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    net::InProcessChannel channel(durable->get());
    auto client = Scheme1Client::Create(TestMasterKey(), options, &channel, &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK((*client)->Store({Document::Make(0, "alpha", {"kw"}),
                                    Document::Make(1, "beta", {"kw"})}));
    EXPECT_GT((*durable)->wal_records(), 0u);
  }

  // Session 2: recover purely from the WAL and search.
  {
    Scheme1Server inner(options);
    auto durable = DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    EXPECT_EQ(inner.document_count(), 2u);
    net::InProcessChannel channel(durable->get());
    DeterministicRandom rng2(2);
    auto client = Scheme1Client::Create(TestMasterKey(), options, &channel, &rng2);
    SSE_ASSERT_OK_RESULT(client);
    auto outcome = (*client)->Search("kw");
    SSE_ASSERT_OK_RESULT(outcome);
    EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1}));
  }
}

TEST(DurableServerTest, CheckpointTruncatesWalAndRestores) {
  TempDir dir;
  DeterministicRandom rng(3);
  const SchemeOptions options = FastTestConfig().scheme;

  {
    Scheme2Server inner(options);
    auto durable = DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    net::InProcessChannel channel(durable->get());
    auto client = Scheme2Client::Create(TestMasterKey(), options, &channel, &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"k1"})}));
    SSE_ASSERT_OK((*durable)->Checkpoint());
    EXPECT_EQ((*durable)->wal_records(), 0u);
    SSE_ASSERT_OK((*client)->Store({Document::Make(1, "b", {"k1"})}));
    EXPECT_EQ((*durable)->wal_records(), 1u);  // only post-checkpoint ops
  }

  // Recovery = snapshot + 1 replayed record.
  {
    Scheme2Server inner(options);
    auto durable = DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    EXPECT_EQ(inner.document_count(), 2u);
    EXPECT_EQ(inner.unique_keywords(), 1u);
  }
}

TEST(DurableServerTest, SearchesAreNotJournaled) {
  TempDir dir;
  DeterministicRandom rng(4);
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme1Server inner(options);
  auto durable = DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);
  net::InProcessChannel channel(durable->get());
  auto client = Scheme1Client::Create(TestMasterKey(), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"kw"})}));
  const uint64_t after_store = (*durable)->wal_records();
  SSE_ASSERT_OK_RESULT((*client)->Search("kw"));
  SSE_ASSERT_OK_RESULT((*client)->Search("kw"));
  EXPECT_EQ((*durable)->wal_records(), after_store);
}

TEST(DurableServerTest, RejectedMutationDoesNotPoisonRecovery) {
  // Regression: a malformed mutating request must be rejected WITHOUT
  // being journaled — otherwise replaying it makes recovery fail forever.
  TempDir dir;
  DeterministicRandom rng(21);
  const SchemeOptions options = FastTestConfig().scheme;
  {
    Scheme1Server inner(options);
    auto durable = DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    net::InProcessChannel channel(durable->get());
    auto client =
        Scheme1Client::Create(TestMasterKey(), options, &channel, &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"k"})}));
    // Garbage with a mutating type: rejected, and must not hit the WAL.
    const uint64_t wal_before = (*durable)->wal_records();
    auto reply =
        channel.Call(net::Message{kMsgS1UpdateRequest, Bytes{0xff, 0xee}});
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ((*durable)->wal_records(), wal_before);
  }
  // Recovery succeeds and serves the good data.
  Scheme1Server inner(options);
  auto durable = DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);
  EXPECT_EQ(inner.document_count(), 1u);
}

TEST(DurableServerTest, ForeignMutationRefusedWithoutWalRecord) {
  // A server classes every mutation row of the message-type table as a
  // mutation, another system's too. It still refuses such a request, so
  // nothing reaches the WAL and the state stays as it was.
  TempDir dir;
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme1Server inner(options);
  auto durable = DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);
  net::InProcessChannel channel(durable->get());
  const Result<Bytes> before = inner.SerializeState();
  SSE_ASSERT_OK_RESULT(before);
  uint64_t seq = 0;
  for (const net::MessageTypeInfo& row : net::kMessageTypes) {
    if (row.kind != net::MessageKind::kMutation ||
        row.type == kMsgS1UpdateRequest || row.type == net::kMsgBatch) {
      continue;
    }
    SCOPED_TRACE(std::string(row.name));
    EXPECT_TRUE(inner.IsMutating(row.type));
    net::Message foreign{row.type, Bytes{0x00}};
    foreign.StampSession(/*client=*/9, ++seq);
    auto reply = channel.Call(foreign);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kProtocolError);
  }
  EXPECT_GT(seq, 0u);
  EXPECT_EQ((*durable)->wal_records(), 0u);
  EXPECT_EQ(inner.SerializeState().value(), *before);
}

TEST(DurableServerTest, CorruptedWalDetectedOnRecovery) {
  TempDir dir;
  DeterministicRandom rng(7);
  const SchemeOptions options = FastTestConfig().scheme;
  {
    Scheme1Server inner(options);
    auto durable = DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    net::InProcessChannel channel(durable->get());
    auto client =
        Scheme1Client::Create(TestMasterKey(), options, &channel, &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"k"})}));
    SSE_ASSERT_OK((*client)->Store({Document::Make(1, "b", {"k"})}));
  }
  // Flip a byte inside the FIRST journaled record's payload (16-byte
  // segment header + 16-byte record header put it at offset 32).
  const std::string wal_path = dir.path() + "/wal.000001.log";
  std::FILE* f = std::fopen(wal_path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 36, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 36, SEEK_SET);
  std::fputc(c ^ 0x55, f);
  std::fclose(f);

  Scheme1Server inner(options);
  auto durable = DurableServer::Open(dir.path(), &inner);
  EXPECT_FALSE(durable.ok());
  EXPECT_EQ(durable.status().code(), StatusCode::kCorruption);
}

TEST(DurableServerTest, TornWalTailRecoversPrefix) {
  TempDir dir;
  DeterministicRandom rng(8);
  const SchemeOptions options = FastTestConfig().scheme;
  {
    Scheme1Server inner(options);
    auto durable = DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    net::InProcessChannel channel(durable->get());
    auto client =
        Scheme1Client::Create(TestMasterKey(), options, &channel, &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"k"})}));
    SSE_ASSERT_OK((*client)->Store({Document::Make(1, "b", {"k"})}));
  }
  // Simulate a crash mid-append: chop bytes off the log tail.
  const std::string wal_path = dir.path() + "/wal.000001.log";
  std::FILE* f = std::fopen(wal_path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size - 7), 0);
  std::fclose(f);

  Scheme1Server inner(options);
  auto durable = DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);
  // The first update survived; the torn second one is gone.
  EXPECT_EQ(inner.document_count(), 1u);
}

TEST(DurableServerTest, TornTailRetryAppliesOnceAndSurvivorsDedup) {
  // Crash tears the WAL mid-way through Scheme 1 update #2. After replay
  // the reply cache and the index must agree: a client retry of the TORN
  // update (never durable, so never acked) executes exactly once, while a
  // retry of the SURVIVING update is served from the recovered cache
  // instead of re-toggling its XOR delta.
  TempDir dir;
  DeterministicRandom rng(9);
  const SchemeOptions options = FastTestConfig().scheme;
  std::vector<net::Message> updates;  // stamped requests, as a client retries
  {
    Scheme1Server inner(options);
    auto durable = DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    net::InProcessChannel::Options record;
    record.record_transcript = true;
    net::InProcessChannel channel(durable->get(), record);
    net::RetryingChannel retry(&channel, net::RetryOptions{}, &rng);
    auto client = Scheme1Client::Create(TestMasterKey(), options, &retry, &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"k"})}));
    SSE_ASSERT_OK((*client)->Store({Document::Make(1, "b", {"k"})}));
    for (const net::Exchange& ex : channel.transcript()) {
      if (ex.request.type == kMsgS1UpdateRequest) updates.push_back(ex.request);
    }
  }
  ASSERT_EQ(updates.size(), 2u);
  ASSERT_TRUE(updates[0].has_session);

  // Tear into the tail record (update #2) as a mid-append crash would.
  const std::string wal_path = dir.path() + "/wal.000001.log";
  std::FILE* f = std::fopen(wal_path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size - 7), 0);
  std::fclose(f);

  Scheme1Server inner(options);
  auto durable = DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);
  EXPECT_EQ(inner.document_count(), 1u);  // update #2 was torn away
  net::InProcessChannel channel(durable->get());

  // Retry of the surviving update: deduped, not re-applied.
  auto cached = channel.Call(updates[0]);
  SSE_ASSERT_OK_RESULT(cached);
  EXPECT_EQ(inner.document_count(), 1u);
  ASSERT_NE((*durable)->reply_cache(), nullptr);
  EXPECT_GE((*durable)->reply_cache()->hits(), 1u);

  // Retry of the torn update: executes exactly once...
  SSE_ASSERT_OK_RESULT(channel.Call(updates[1]));
  EXPECT_EQ(inner.document_count(), 2u);
  // ...and a second retry of it is now deduped too.
  SSE_ASSERT_OK_RESULT(channel.Call(updates[1]));
  EXPECT_EQ(inner.document_count(), 2u);

  // The index agrees with what an honest client believes it stored.
  DeterministicRandom rng2(10);
  auto client = Scheme1Client::Create(TestMasterKey(), options, &channel, &rng2);
  SSE_ASSERT_OK_RESULT(client);
  auto outcome = (*client)->Search("k");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1}));
}

TEST(DurableServerTest, ReplyCacheReportsUnderItsOwnName) {
  // sse_cli's stack: the durable shell dedups and the engine's cache is
  // off. The shell's cache is scraped under the durable prefix, and no
  // engine reply-cache series picks it up.
  TempDir dir;
  DeterministicRandom rng(12);
  const SchemeOptions options = FastTestConfig().scheme;
  auto engine = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme2Adapter>(options),
      engine::EngineOptions{});
  SSE_ASSERT_OK_RESULT(engine);
  auto durable = DurableServer::Open(dir.path(), engine->get());
  SSE_ASSERT_OK_RESULT(durable);
  net::InProcessChannel channel(durable->get());
  net::RetryingChannel retry(&channel, net::RetryOptions{}, &rng);
  auto client = Scheme2Client::Create(TestMasterKey(), options, &retry, &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"k", "j"}),
                                  Document::Make(1, "b", {"k"})}));
  ASSERT_NE((*durable)->reply_cache(), nullptr);
  const size_t entries = (*durable)->reply_cache()->entry_count();
  ASSERT_GT(entries, 0u);

  const std::string text = obs::MetricsRegistry::Global().RenderPrometheus();
  double durable_entries = -1;
  ASSERT_TRUE(repl::FindMetricValue(text, "sse_durable_reply_cache_entries",
                                    &durable_entries));
  EXPECT_EQ(durable_entries, static_cast<double>(entries));
  double durable_evictions = -1;
  ASSERT_TRUE(repl::FindMetricValue(
      text, "sse_durable_reply_cache_evictions_total", &durable_evictions));
  EXPECT_EQ(durable_evictions,
            static_cast<double>((*durable)->reply_cache()->evictions()));
  double engine_entries = 0;
  if (repl::FindMetricValue(text, "sse_engine_reply_cache_entries",
                            &engine_entries)) {
    EXPECT_EQ(engine_entries, 0.0);
  }
}

TEST(DurableServerTest, FallsBackToOlderSnapshotGeneration) {
  TempDir dir;
  DeterministicRandom rng(11);
  const SchemeOptions options = FastTestConfig().scheme;
  {
    Scheme1Server inner(options);
    auto durable = DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    net::InProcessChannel channel(durable->get());
    auto client =
        Scheme1Client::Create(TestMasterKey(), options, &channel, &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"k"})}));
    SSE_ASSERT_OK((*durable)->Checkpoint());  // generation 1
    SSE_ASSERT_OK((*client)->Store({Document::Make(1, "b", {"k"})}));
    SSE_ASSERT_OK((*durable)->Checkpoint());  // generation 2
    SSE_ASSERT_OK((*client)->Store({Document::Make(2, "c", {"k"})}));  // WAL
  }
  // Damage the newest generation's payload. Recovery must fall back to
  // generation 1 and catch up from the WAL, which checkpointing retains
  // back to the OLDER generation's cut for exactly this reason.
  storage::SnapshotSet snapshots(dir.path());
  std::FILE* f = std::fopen(snapshots.PathFor(2).c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 30, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 30, SEEK_SET);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);

  Scheme1Server inner(options);
  auto durable = DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);
  EXPECT_EQ(inner.document_count(), 3u);
  net::InProcessChannel channel(durable->get());
  DeterministicRandom rng2(12);
  auto client = Scheme1Client::Create(TestMasterKey(), options, &channel, &rng2);
  SSE_ASSERT_OK_RESULT(client);
  auto outcome = (*client)->Search("k");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2}));
}

/// How the mutation whose fsync fails reaches the server: a standalone
/// unstamped call, or a stamped envelope so the reply cache is involved.
enum class RequestShape { kStandalone, kBatched };

/// A stamped kMsgBatch envelope of `n` Scheme 1 updates, each adding one
/// new keyword (so each applies on its own, in any order).
net::Message StampedNewKeywordEnvelope(const SchemeOptions& options,
                                       uint8_t n) {
  net::BatchRequest batch;
  for (uint8_t i = 1; i <= n; ++i) {
    S1UpdateEntry entry;
    entry.token = Bytes(32, i);
    entry.masked_delta = Bytes((options.max_documents + 7) / 8, 0);
    entry.new_enc_nonce = Bytes(16, i);
    entry.is_new = true;
    S1UpdateRequest update;
    update.entries.push_back(std::move(entry));
    net::Message op = update.ToMessage();
    batch.ops.push_back(net::BatchRequest::Op{i, op.type, op.payload});
  }
  net::Message envelope = batch.ToMessage();
  envelope.StampSession(/*client=*/77, /*sequence=*/100);
  return envelope;
}

class DurableFsyncTest : public ::testing::TestWithParam<RequestShape> {};

TEST_P(DurableFsyncTest, FailedFsyncDegradesToReadOnly) {
  storage::FaultyEnv env;
  DeterministicRandom rng(13);
  const SchemeOptions options = FastTestConfig().scheme;
  DurableServer::Options dopts;
  dopts.env = &env;
  Scheme1Server inner(options);
  auto durable = DurableServer::Open("/vault", &inner, dopts);
  SSE_ASSERT_OK_RESULT(durable);
  net::InProcessChannel channel(durable->get());
  auto client = Scheme1Client::Create(TestMasterKey(), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"k"})}));
  EXPECT_FALSE((*durable)->degraded());

  if (GetParam() == RequestShape::kStandalone) {
    // The next mutation appends (op `ops()`) then fsyncs (op `ops()+1`):
    // fail the fsync. fsyncgate rule: the sync is never retried.
    env.FailAt(env.ops() + 1, storage::FaultyEnv::FaultKind::kSyncFail);
    EXPECT_FALSE((*client)->Store({Document::Make(1, "b", {"k"})}).ok());
  } else {
    // Three sub-ops append (ops `ops()`..`ops()+2`), then ONE group fsync
    // covers them and fails: every sub-op is refused, and none of their
    // dedup claims may reach the reply cache.
    ASSERT_NE((*durable)->reply_cache(), nullptr);
    const size_t cached = (*durable)->reply_cache()->entry_count();
    env.FailAt(env.ops() + 3, storage::FaultyEnv::FaultKind::kSyncFail);
    auto reply = channel.Call(StampedNewKeywordEnvelope(options, 3));
    SSE_ASSERT_OK_RESULT(reply);
    auto batch = net::BatchReply::FromMessage(*reply);
    SSE_ASSERT_OK_RESULT(batch);
    ASSERT_EQ(batch->entries.size(), 3u);
    for (const net::BatchReply::Entry& entry : batch->entries) {
      const Status status =
          net::DecodeErrorMessage(net::Message{entry.type, entry.payload});
      EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    }
    EXPECT_EQ((*durable)->reply_cache()->entry_count(), cached);
  }
  EXPECT_TRUE((*durable)->degraded());
  EXPECT_FALSE((*durable)->degraded_cause().ok());

  // Mutations are now refused up front with UNAVAILABLE...
  auto refused = (*client)->Store({Document::Make(2, "c", {"k"})});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_EQ((*durable)->Checkpoint().code(), StatusCode::kUnavailable);

  // ...while searches keep serving (read-only, possibly ahead of disk:
  // the failed store WAS applied in memory before its journal sync).
  auto outcome = (*client)->Search("k");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_FALSE(outcome->ids.empty());
  EXPECT_EQ(outcome->ids.front(), 0u);

  // Restart against the surviving image: every acked write is there. The
  // unacked one may or may not be, depending on how much of the unsynced
  // WAL tail the simulated page cache wrote back — both are correct.
  env.Restart();
  Scheme1Server inner2(options);
  auto reopened = DurableServer::Open("/vault", &inner2, dopts);
  SSE_ASSERT_OK_RESULT(reopened);
  EXPECT_GE(inner2.document_count(), 1u);
  net::InProcessChannel channel2(reopened->get());
  DeterministicRandom rng2(14);
  auto client2 =
      Scheme1Client::Create(TestMasterKey(), options, &channel2, &rng2);
  SSE_ASSERT_OK_RESULT(client2);
  auto recovered = (*client2)->Search("k");
  SSE_ASSERT_OK_RESULT(recovered);
  ASSERT_FALSE(recovered->ids.empty());
  EXPECT_EQ(recovered->ids.front(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RequestShapes, DurableFsyncTest,
    ::testing::Values(RequestShape::kStandalone, RequestShape::kBatched),
    [](const ::testing::TestParamInfo<RequestShape>& info) {
      return info.param == RequestShape::kStandalone ? "standalone"
                                                     : "batched";
    });

TEST(DurableServerTest, NullInnerRejected) {
  TempDir dir;
  EXPECT_FALSE(DurableServer::Open(dir.path(), nullptr).ok());
}

TEST(DurableServerTest, UnwritableDirectoryFails) {
  Scheme1Server inner(FastTestConfig().scheme);
  EXPECT_FALSE(DurableServer::Open("/nonexistent/path/here", &inner).ok());
}

}  // namespace
}  // namespace sse::core
