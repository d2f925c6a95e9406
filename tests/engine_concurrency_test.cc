// Multi-threaded stress tests for the sharded engine and the layers that
// become concurrent with it: TcpServer without handler serialization and
// DurableServer group commit. These are the tests scripts/ci.sh runs under
// ThreadSanitizer (ctest label "concurrency").

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sse/core/durable_server.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme2_client.h"
#include "sse/engine/scheme1_adapter.h"
#include "sse/engine/scheme2_adapter.h"
#include "sse/engine/server_engine.h"
#include "sse/net/tcp.h"
#include "test_util.h"

namespace sse {
namespace {

using ::sse::testing::EngineCounter;
using ::sse::testing::FastTestConfig;
using ::sse::testing::TempDir;
using ::sse::testing::TestMasterKey;

std::unique_ptr<engine::ServerEngine> MakeEngine(size_t shards) {
  engine::EngineOptions options;
  options.num_shards = shards;
  auto eng = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme1Adapter>(FastTestConfig().scheme),
      options);
  EXPECT_TRUE(eng.ok()) << eng.status().ToString();
  return std::move(eng).value();
}

std::unique_ptr<core::Scheme1Client> MakeClient(net::Channel* channel,
                                                RandomSource* rng) {
  auto client = core::Scheme1Client::Create(
      TestMasterKey(), FastTestConfig().scheme, channel, rng);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Keyword owned exclusively by writer thread `t`; concurrent updates to
/// the *same* keyword are a protocol-level race for Scheme 1 (the client
/// would reuse the nonce), so writers keep disjoint keyword sets — the
/// engine's job is to make that safe, not to change the protocol.
std::string WriterKeyword(size_t t, int i) {
  return "w" + std::to_string(t) + "-" + std::to_string(i);
}

// Readers hammer preloaded keywords while writers grow the index with
// disjoint keywords; every read must see exactly the preloaded ids and
// every write must land.
TEST(EngineConcurrencyTest, InterleavedSearchesAndUpdates) {
  const size_t kShards = 8;
  const uint64_t requests_before = EngineCounter("requests");
  auto eng = MakeEngine(kShards);

  // Preload: stable keywords whose result sets never change.
  DeterministicRandom setup_rng(31);
  net::InProcessChannel setup_channel(eng.get());
  auto setup_client = MakeClient(&setup_channel, &setup_rng);
  std::vector<core::Document> preload;
  for (uint64_t i = 0; i < 8; ++i) {
    preload.push_back(core::Document::Make(
        i, "stable " + std::to_string(i),
        {"stable" + std::to_string(i % 4), "everywhere"}));
  }
  SSE_ASSERT_OK(setup_client->Store(preload));

  const size_t kWriters = 2;
  const size_t kReaders = 3;
  const int kOpsPerWriter = 12;
  const int kOpsPerReader = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;

  for (size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      DeterministicRandom rng(100 + t);
      net::InProcessChannel channel(eng.get());
      auto client = MakeClient(&channel, &rng);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        // Disjoint id space per writer, above the preloaded ids.
        const uint64_t id = 16 + t * kOpsPerWriter + i;
        Status s = client->Store({core::Document::Make(
            id, "doc", {WriterKeyword(t, i)})});
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      DeterministicRandom rng(200 + t);
      net::InProcessChannel channel(eng.get());
      auto client = MakeClient(&channel, &rng);
      for (int i = 0; i < kOpsPerReader; ++i) {
        auto outcome = client->Search("stable" + std::to_string(i % 4));
        if (!outcome.ok() || outcome->ids.size() != 2 ||
            outcome->documents.size() != 2) {
          failures.fetch_add(1);
          continue;
        }
        if (i % 8 == 0) {
          auto all = client->Search("everywhere");
          if (!all.ok() || all->ids.size() != 8) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Every concurrent write landed and is findable afterwards.
  for (size_t t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kOpsPerWriter; ++i) {
      auto outcome = setup_client->Search(WriterKeyword(t, i));
      SSE_ASSERT_OK_RESULT(outcome);
      EXPECT_EQ(outcome->ids.size(), 1u) << WriterKeyword(t, i);
    }
  }
  EXPECT_GE(EngineCounter("requests") - requests_before,
            static_cast<uint64_t>(kReaders * kOpsPerReader));
}

// Shard states survive a serialize/restore cycle taken while the engine is
// under read load (SerializeState locks shards shared, so concurrent
// searches are legal during the snapshot).
TEST(EngineConcurrencyTest, SnapshotUnderReadLoad) {
  auto eng = MakeEngine(4);
  DeterministicRandom setup_rng(37);
  net::InProcessChannel setup_channel(eng.get());
  auto setup_client = MakeClient(&setup_channel, &setup_rng);
  std::vector<core::Document> docs;
  for (uint64_t i = 0; i < 12; ++i) {
    docs.push_back(core::Document::Make(i, "d", {"k" + std::to_string(i % 3)}));
  }
  SSE_ASSERT_OK(setup_client->Store(docs));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    DeterministicRandom rng(38);
    net::InProcessChannel channel(eng.get());
    auto client = MakeClient(&channel, &rng);
    int i = 0;
    while (!stop.load()) {
      auto outcome = client->Search("k" + std::to_string(i++ % 3));
      if (!outcome.ok() || outcome->ids.size() != 4) failures.fetch_add(1);
    }
  });

  Result<Bytes> state = Status::Internal("unset");
  for (int i = 0; i < 5; ++i) state = eng->SerializeState();
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  SSE_ASSERT_OK_RESULT(state);

  auto restored = MakeEngine(4);
  SSE_ASSERT_OK(restored->RestoreState(*state));
  net::InProcessChannel channel(restored.get());
  DeterministicRandom rng(39);
  auto client = MakeClient(&channel, &rng);
  auto outcome = client->Search("k1");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{1, 4, 7, 10}));
}

// Owners store and search their own Scheme 2 keywords through one 4-shard
// engine whose shards each cache the lists of at most 2 keywords. Searches
// share their shard's lock, so evictions race cache hits and one another;
// every answer must still be exact.
TEST(EngineConcurrencyTest, BoundedScheme2CacheUnderConcurrentOwners) {
  core::SchemeOptions options = FastTestConfig().scheme;
  options.plaintext_cache_max_entries = 2;
  engine::EngineOptions engine_options;
  engine_options.num_shards = 4;
  auto eng = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme2Adapter>(options), engine_options);
  SSE_ASSERT_OK_RESULT(eng);
  auto* evictions = obs::MetricsRegistry::Global().GetCounter(
      "sse_s2_plaintext_cache_evictions_total");
  const uint64_t evictions_before = evictions->Value();

  constexpr uint64_t kOwners = 4;
  constexpr uint64_t kRounds = 12;
  std::atomic<int> failures{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> owners;
  for (uint64_t t = 0; t < kOwners; ++t) {
    owners.emplace_back([&, t] {
      net::InProcessChannel channel(eng->get());
      DeterministicRandom rng(500 + t);
      auto client = core::Scheme2Client::Create(TestMasterKey(), options,
                                                &channel, &rng);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string own = "o" + std::to_string(t);
      std::map<std::string, std::vector<uint64_t>> expected;
      auto search = [&](const std::string& keyword) {
        auto outcome = (*client)->Search(keyword);
        if (!outcome.ok() || outcome->ids != expected[keyword]) {
          failures.fetch_add(1);
        } else if ((*client)->last_search_segments_decrypted() <
                   expected[keyword].size()) {
          hits.fetch_add(1);  // opened only what the cache did not hold
        }
      };
      for (uint64_t i = 0; i < kRounds; ++i) {
        const uint64_t id = t * kRounds + i;
        const std::string group = own + "/" + std::to_string(i % 3);
        if (!(*client)
                 ->Store({core::Document::Make(id, "doc", {own, group})})
                 .ok()) {
          failures.fetch_add(1);
          continue;
        }
        expected[own].push_back(id);
        expected[group].push_back(id);
        search(group);
        search(own);
        search(own);
      }
    });
  }
  for (std::thread& owner : owners) owner.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(hits.load(), 0);
  EXPECT_GT(evictions->Value() - evictions_before, 0u);
}

// Multiple TCP connections reach a thread-safe engine concurrently when
// handler serialization is off.
TEST(EngineConcurrencyTest, TcpServerConcurrentConnections) {
  auto eng = MakeEngine(8);
  net::TcpServer::Options options;
  options.serialize_handler = false;
  auto server = net::TcpServer::Start(eng.get(), /*port=*/0, options);
  SSE_ASSERT_OK_RESULT(server);
  const uint16_t port = (*server)->port();

  const size_t kThreads = 3;
  const int kOps = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto channel = net::TcpChannel::Connect(port);
      if (!channel.ok()) {
        failures.fetch_add(1);
        return;
      }
      DeterministicRandom rng(300 + t);
      auto client = MakeClient(channel->get(), &rng);
      for (int i = 0; i < kOps; ++i) {
        const uint64_t id = t * kOps + i;
        const std::string kw = WriterKeyword(t, i);
        if (!client->Store({core::Document::Make(id, "tcp doc", {kw})}).ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto outcome = client->Search(kw);
        if (!outcome.ok() || outcome->ids != std::vector<uint64_t>{id}) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE((*server)->connections_accepted(), kThreads);
  EXPECT_GE((*server)->requests_served(),
            static_cast<uint64_t>(kThreads * kOps * 2));
  (*server)->Stop();
}

// Concurrent mutations through DurableServer: group commit batches fsyncs,
// a mid-run checkpoint quiesces correctly, and recovery replays to the
// exact same searchable state.
TEST(EngineConcurrencyTest, DurableGroupCommitAndRecovery) {
  TempDir dir;
  const size_t kThreads = 3;
  const int kOps = 8;
  {
    auto eng = MakeEngine(4);
    auto durable = core::DurableServer::Open(dir.path(), eng.get());
    SSE_ASSERT_OK_RESULT(durable);

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        DeterministicRandom rng(400 + t);
        net::InProcessChannel channel(durable->get());
        auto client = MakeClient(&channel, &rng);
        for (int i = 0; i < kOps; ++i) {
          const uint64_t id = t * kOps + i;
          Status s = client->Store(
              {core::Document::Make(id, "durable", {WriterKeyword(t, i)})});
          if (!s.ok()) failures.fetch_add(1);
        }
      });
    }
    // A checkpoint racing the writers: it must block them, not tear them.
    threads.emplace_back([&] {
      for (int i = 0; i < 2; ++i) {
        Status s = (*durable)->Checkpoint();
        if (!s.ok()) failures.fetch_add(1);
      }
    });
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
    // Group commit only merges fsyncs: never more than one per mutation.
    EXPECT_LE((*durable)->wal_syncs(),
              static_cast<uint64_t>(kThreads * kOps));
  }

  // Reopen: snapshot + WAL replay must reconstruct every update.
  auto eng = MakeEngine(4);
  auto durable = core::DurableServer::Open(dir.path(), eng.get());
  SSE_ASSERT_OK_RESULT(durable);
  net::InProcessChannel channel(durable->get());
  DeterministicRandom rng(41);
  auto client = MakeClient(&channel, &rng);
  for (size_t t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOps; ++i) {
      auto outcome = client->Search(WriterKeyword(t, i));
      SSE_ASSERT_OK_RESULT(outcome);
      EXPECT_EQ(outcome->ids,
                (std::vector<uint64_t>{t * kOps + static_cast<uint64_t>(i)}))
          << WriterKeyword(t, i);
    }
  }
}

}  // namespace
}  // namespace sse
