// Seeded crash-recovery sweep over the storage fault-injection Env.
//
// A fault-free workload is recorded once as the exact wire messages a
// retrying client sent. A deterministic replay of that transcript against a
// fresh FaultyEnv fixes the storage-operation schedule (M operations) and
// the reference end state. Then, for EVERY operation index k < M, the
// workload re-runs against an env that crashes at op k — covering append,
// fsync, rotation, checkpoint (snapshot write, prune, compaction) and batch
// group-commit paths. After each crash the server is restarted against the
// surviving disk image and must recover; a client-style retry of every
// mutation (twice) must then leave the state byte-identical to the
// reference: acknowledged writes survived (their retries dedup against the
// recovered reply cache), unacknowledged ones apply exactly once.
//
// The torn-write seed is overridable via SSE_CRASH_SEED for soak runs; the
// op schedule is content-independent, so every seed sweeps the same points.

#include "sse/core/durable_server.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sse/core/scheme1_client.h"
#include "sse/core/scheme1_server.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_server.h"
#include "sse/core/scheme3_client.h"
#include "sse/core/scheme3_server.h"
#include "sse/engine/scheme1_adapter.h"
#include "sse/engine/server_engine.h"
#include "sse/net/batch.h"
#include "sse/net/retry.h"
#include "sse/obs/metrics_registry.h"
#include "sse/repl/failover_channel.h"
#include "sse/storage/faulty_env.h"
#include "test_util.h"

namespace sse {
namespace {

using ::sse::testing::FastTestConfig;
using ::sse::testing::TestMasterKey;

uint64_t CrashSeed() {
  if (const char* s = std::getenv("SSE_CRASH_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 0x53534531u;
}

/// Tiny segments force a rotation on nearly every journaled record, so the
/// sweep exercises segment creation/sealing as densely as appends.
core::DurableServer::Options DurableOpts(storage::FaultyEnv* env) {
  core::DurableServer::Options opts;
  opts.env = env;
  opts.wal_segment_bytes = 256;
  return opts;
}

struct RecordedWorkload {
  std::vector<net::Message> messages;  // raw stamped requests, wire order
  std::vector<bool> mutating;          // aligned with messages
  std::vector<bool> dedupable;         // has >=1 cache-entering sub-op
  std::set<size_t> checkpoint_after;   // Checkpoint() after N messages fed
};

using InnerFactory =
    std::function<std::unique_ptr<core::PersistableHandler>()>;

/// Classifies a recorded request: does it mutate state (must be resent by
/// the oracle), and does a successful reply promise dedup cache entries
/// (plain mutations and every mutating sub-op of a batch envelope; a batch
/// of read-only sub-ops is "mutating=false, dedupable=false").
void Classify(const core::PersistableHandler& handler,
              const net::Message& request, bool* mutating, bool* dedupable) {
  if (request.type != net::kMsgBatch) {
    *mutating = handler.IsMutating(request.type);
    *dedupable = *mutating && request.has_session;
    return;
  }
  *mutating = false;
  *dedupable = false;
  auto batch = net::BatchRequest::FromMessage(request);
  ASSERT_TRUE(batch.ok());
  for (const auto& op : batch->ops) {
    if (handler.IsMutating(op.type)) {
      *mutating = true;
      *dedupable = request.has_session;
      return;
    }
  }
}

/// True if the reply means every sub-operation is durably applied. Batch
/// envelopes report per-op outcomes inside an OK envelope, so the entries
/// must be inspected: a crash mid-envelope yields error entries for the
/// sub-ops whose durability was never established.
bool FullyAcked(const net::Message& request,
                const Result<net::Message>& reply) {
  if (!reply.ok()) return false;
  if (request.type != net::kMsgBatch) return true;
  auto decoded = net::BatchReply::FromMessage(*reply);
  if (!decoded.ok()) return false;
  for (const auto& entry : decoded->entries) {
    if (entry.type == net::kMsgError) return false;
  }
  return true;
}

/// Feeds the transcript in order, checkpointing at the recorded boundaries,
/// until the env crashes. `acked[i]` is set iff message i's reply promised
/// durability — which the DurableServer only does once the record(s) are
/// fsynced.
void FeedWorkload(const RecordedWorkload& w, core::DurableServer* durable,
                  storage::FaultyEnv* env, std::vector<bool>* acked) {
  acked->assign(w.messages.size(), false);
  for (size_t i = 0; i < w.messages.size(); ++i) {
    if (env->crashed()) break;
    (*acked)[i] = FullyAcked(w.messages[i], durable->Handle(w.messages[i]));
    if (w.checkpoint_after.count(i + 1) != 0 && !env->crashed()) {
      (void)durable->Checkpoint();
    }
  }
}

/// The heart of the PR's acceptance criterion. See file comment.
void CrashSweep(const RecordedWorkload& w, const InnerFactory& make_inner,
                uint64_t min_crash_points) {
  const uint64_t seed = CrashSeed();

  // Pass 1 (fault-free): fix the op schedule and the reference state.
  uint64_t total_ops = 0;
  Bytes reference;
  {
    storage::FaultyEnv env(seed);
    auto inner = make_inner();
    auto durable = core::DurableServer::Open("/vault", inner.get(),
                                             DurableOpts(&env));
    SSE_ASSERT_OK_RESULT(durable);
    std::vector<bool> acked;
    FeedWorkload(w, durable->get(), &env, &acked);
    for (size_t i = 0; i < acked.size(); ++i) {
      ASSERT_TRUE(acked[i]) << "fault-free replay rejected message " << i;
    }
    total_ops = env.ops();
    auto state = inner->SerializeState();
    SSE_ASSERT_OK_RESULT(state);
    reference = std::move(*state);
  }
  EXPECT_GE(total_ops, min_crash_points)
      << "workload too small for a meaningful sweep";

  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("crash point " + std::to_string(k) + "/" +
                 std::to_string(total_ops) + " (seed " +
                 std::to_string(seed) + ")");
    storage::FaultyEnv env(seed);
    env.CrashAt(k);

    auto victim = make_inner();
    std::vector<bool> acked(w.messages.size(), false);
    {
      // Open itself may be the victim (crash during recovery); that run
      // simply feeds nothing and the post-restart reopen must still work.
      auto durable = core::DurableServer::Open("/vault", victim.get(),
                                               DurableOpts(&env));
      if (durable.ok()) FeedWorkload(w, durable->get(), &env, &acked);
    }
    if (!env.crashed()) env.Crash();  // schedule always fires for k < M
    env.Restart();

    // Recovery MUST succeed at every crash point.
    auto recovered = make_inner();
    auto reopened = core::DurableServer::Open("/vault", recovered.get(),
                                              DurableOpts(&env));
    ASSERT_TRUE(reopened.ok())
        << "recovery failed: " << reopened.status().message();
    const core::ReplyCache* cache = (*reopened)->reply_cache();
    ASSERT_NE(cache, nullptr);

    // Round 1: a client retries every mutation in order. Acked ones must
    // be served from the recovered dedup cache, never re-applied.
    for (size_t i = 0; i < w.messages.size(); ++i) {
      if (!w.mutating[i]) continue;
      const uint64_t hits_before = cache->hits();
      auto reply = (*reopened)->Handle(w.messages[i]);
      ASSERT_TRUE(reply.ok()) << "retry of message " << i << " failed: "
                              << reply.status().message();
      if (acked[i] && w.dedupable[i]) {
        EXPECT_GT(cache->hits(), hits_before)
            << "acked message " << i << " was not deduped after recovery";
      }
    }
    // Round 2: by now everything is cached; retries must all be no-ops.
    for (size_t i = 0; i < w.messages.size(); ++i) {
      if (!w.mutating[i]) continue;
      ASSERT_TRUE((*reopened)->Handle(w.messages[i]).ok());
    }

    auto state = recovered->SerializeState();
    SSE_ASSERT_OK_RESULT(state);
    EXPECT_EQ(*state, reference)
        << "state diverged from the fault-free reference";
  }
}

/// Scheme 1 workload: a plain client storing XOR-delta updates (the
/// non-idempotent path dedup exists for) with periodic checkpoints, then a
/// second client pushing batched update envelopes through group commit.
RecordedWorkload RecordScheme1Workload() {
  RecordedWorkload w;
  storage::FaultyEnv env(CrashSeed());
  core::SchemeOptions plain_opts = FastTestConfig().scheme;
  core::SchemeOptions batched_opts = plain_opts;
  batched_opts.batch_ops = true;

  core::Scheme1Server inner(plain_opts);
  auto durable =
      core::DurableServer::Open("/vault", &inner, DurableOpts(&env));
  EXPECT_TRUE(durable.ok());
  net::InProcessChannel::Options record;
  record.record_transcript = true;
  net::InProcessChannel channel(durable->get(), record);

  DeterministicRandom rng1(CrashSeed() ^ 0x101);
  net::RetryOptions plain_retry;
  plain_retry.client_id = 1;
  net::RetryingChannel retry1(&channel, plain_retry, &rng1);
  auto client1 =
      core::Scheme1Client::Create(TestMasterKey(), plain_opts, &retry1, &rng1);
  EXPECT_TRUE(client1.ok());
  for (int i = 0; i < 30; ++i) {
    // Reused keywords make most updates is_new=0 XOR toggles: any
    // double-apply after recovery flips bits and fails the state oracle.
    SSE_EXPECT_OK((*client1)->Store(
        {core::Document::Make(static_cast<uint64_t>(i),
                              "plain doc " + std::to_string(i),
                              {"kw" + std::to_string(i % 6)})}));
    if (i % 6 == 5) {
      SSE_EXPECT_OK((*durable)->Checkpoint());
      w.checkpoint_after.insert(channel.transcript().size());
    }
  }

  DeterministicRandom rng2(CrashSeed() ^ 0x202);
  net::RetryOptions batch_retry;
  batch_retry.client_id = 2;
  batch_retry.batch_size = 4;
  batch_retry.max_inflight = 1;  // deterministic transcript order
  net::RetryingChannel retry2(&channel, batch_retry, &rng2);
  auto client2 = core::Scheme1Client::Create(TestMasterKey(), batched_opts,
                                             &retry2, &rng2);
  EXPECT_TRUE(client2.ok());
  std::vector<core::Document> bulk;
  for (int i = 0; i < 16; ++i) {
    bulk.push_back(core::Document::Make(100 + i,
                                        "batched doc " + std::to_string(i),
                                        {"bkw" + std::to_string(i)}));
  }
  SSE_EXPECT_OK((*client2)->Store(bulk));
  SSE_EXPECT_OK((*durable)->Checkpoint());
  w.checkpoint_after.insert(channel.transcript().size());

  core::Scheme1Server classifier(plain_opts);
  for (const net::Exchange& ex : channel.transcript()) {
    bool mutating = false, dedupable = false;
    Classify(classifier, ex.request, &mutating, &dedupable);
    w.messages.push_back(ex.request);
    w.mutating.push_back(mutating);
    w.dedupable.push_back(dedupable);
  }
  return w;
}

/// Scheme 2 workload, stores only (Scheme 2 searches advance server-side
/// chain state, so a search would make the retry oracle order-sensitive).
RecordedWorkload RecordScheme2Workload() {
  RecordedWorkload w;
  storage::FaultyEnv env(CrashSeed());
  const core::SchemeOptions options = FastTestConfig().scheme;
  core::Scheme2Server inner(options);
  auto durable =
      core::DurableServer::Open("/vault", &inner, DurableOpts(&env));
  EXPECT_TRUE(durable.ok());
  net::InProcessChannel::Options record;
  record.record_transcript = true;
  net::InProcessChannel channel(durable->get(), record);

  DeterministicRandom rng(CrashSeed() ^ 0x303);
  net::RetryOptions retry_opts;
  retry_opts.client_id = 3;
  net::RetryingChannel retry(&channel, retry_opts, &rng);
  auto client =
      core::Scheme2Client::Create(TestMasterKey(), options, &retry, &rng);
  EXPECT_TRUE(client.ok());
  for (int i = 0; i < 16; ++i) {
    SSE_EXPECT_OK((*client)->Store(
        {core::Document::Make(static_cast<uint64_t>(i),
                              "s2 doc " + std::to_string(i),
                              {"s2kw" + std::to_string(i % 5)})}));
    if (i % 5 == 4) {
      SSE_EXPECT_OK((*durable)->Checkpoint());
      w.checkpoint_after.insert(channel.transcript().size());
    }
  }

  core::Scheme2Server classifier(options);
  for (const net::Exchange& ex : channel.transcript()) {
    bool mutating = false, dedupable = false;
    Classify(classifier, ex.request, &mutating, &dedupable);
    w.messages.push_back(ex.request);
    w.mutating.push_back(mutating);
    w.dedupable.push_back(dedupable);
  }
  return w;
}

/// Scheme 3 workload, stores only. The forward-private update is the
/// interesting recovery case: each update's address is single-use, so a
/// retry after recovery must dedup against the reply cache (or overwrite
/// the identical entry) without the client burning a second counter.
RecordedWorkload RecordScheme3Workload() {
  RecordedWorkload w;
  storage::FaultyEnv env(CrashSeed());
  const core::SchemeOptions options = FastTestConfig().scheme;
  core::Scheme3Server inner(options);
  auto durable =
      core::DurableServer::Open("/vault", &inner, DurableOpts(&env));
  EXPECT_TRUE(durable.ok());
  net::InProcessChannel::Options record;
  record.record_transcript = true;
  net::InProcessChannel channel(durable->get(), record);

  DeterministicRandom rng(CrashSeed() ^ 0x404);
  net::RetryOptions retry_opts;
  retry_opts.client_id = 4;
  net::RetryingChannel retry(&channel, retry_opts, &rng);
  auto client =
      core::Scheme3Client::Create(TestMasterKey(), options, &retry, &rng);
  EXPECT_TRUE(client.ok());
  for (int i = 0; i < 16; ++i) {
    SSE_EXPECT_OK((*client)->Store(
        {core::Document::Make(static_cast<uint64_t>(i),
                              "s3 doc " + std::to_string(i),
                              {"s3kw" + std::to_string(i % 5)})}));
    if (i % 5 == 4) {
      SSE_EXPECT_OK((*durable)->Checkpoint());
      w.checkpoint_after.insert(channel.transcript().size());
    }
  }

  core::Scheme3Server classifier(options);
  for (const net::Exchange& ex : channel.transcript()) {
    bool mutating = false, dedupable = false;
    Classify(classifier, ex.request, &mutating, &dedupable);
    w.messages.push_back(ex.request);
    w.mutating.push_back(mutating);
    w.dedupable.push_back(dedupable);
  }
  return w;
}

TEST(CrashRecoveryTest, Scheme1SurvivesACrashAtEveryStorageOperation) {
  const RecordedWorkload w = RecordScheme1Workload();
  ASSERT_FALSE(w.messages.empty());
  const core::SchemeOptions options = FastTestConfig().scheme;
  CrashSweep(
      w, [&] { return std::make_unique<core::Scheme1Server>(options); },
      /*min_crash_points=*/200);
}

TEST(CrashRecoveryTest, Scheme2SurvivesACrashAtEveryStorageOperation) {
  const RecordedWorkload w = RecordScheme2Workload();
  ASSERT_FALSE(w.messages.empty());
  const core::SchemeOptions options = FastTestConfig().scheme;
  CrashSweep(
      w, [&] { return std::make_unique<core::Scheme2Server>(options); },
      /*min_crash_points=*/50);
}

TEST(CrashRecoveryTest, Scheme3SurvivesACrashAtEveryStorageOperation) {
  const RecordedWorkload w = RecordScheme3Workload();
  ASSERT_FALSE(w.messages.empty());
  const core::SchemeOptions options = FastTestConfig().scheme;
  CrashSweep(
      w, [&] { return std::make_unique<core::Scheme3Server>(options); },
      /*min_crash_points=*/50);
}

TEST(CrashRecoveryTest, DegradedModeSurfacesInEngineGauge) {
  storage::FaultyEnv env;
  DeterministicRandom rng(91);
  const core::SchemeOptions options = FastTestConfig().scheme;
  auto engine = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme1Adapter>(options),
      engine::EngineOptions{});
  SSE_ASSERT_OK_RESULT(engine);
  core::DurableServer::Options dopts;
  dopts.env = &env;
  auto durable = core::DurableServer::Open("/vault", engine->get(), dopts);
  SSE_ASSERT_OK_RESULT(durable);
  net::InProcessChannel channel(durable->get());
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->Store({core::Document::Make(0, "a", {"k"})}));
  // The engine is the only one alive in this test, so the scraped gauge is
  // its own flag.
  auto degraded_gauge = [] {
    double value = -1;
    EXPECT_TRUE(repl::FindMetricValue(
        obs::MetricsRegistry::Global().RenderPrometheus(),
        "sse_engine_degraded", &value));
    return value;
  };
  EXPECT_FALSE((*engine)->degraded());
  EXPECT_EQ(degraded_gauge(), 0.0);

  // Fail the journal fsync of the next mutation (append at ops(), sync at
  // ops()+1): the fail-stop must propagate into the engine's metrics.
  env.FailAt(env.ops() + 1, storage::FaultyEnv::FaultKind::kSyncFail);
  EXPECT_FALSE((*client)->Store({core::Document::Make(1, "b", {"k"})}).ok());

  EXPECT_TRUE((*engine)->degraded());
  EXPECT_EQ(degraded_gauge(), 1.0);

  // Mutations are refused, reads keep serving.
  auto refused = (*client)->Store({core::Document::Make(2, "c", {"k"})});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  auto outcome = (*client)->Search("k");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_FALSE(outcome->ids.empty());
  EXPECT_EQ(outcome->ids.front(), 0u);
}

}  // namespace
}  // namespace sse
