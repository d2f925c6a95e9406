// Scheme 3 (forward-private dynamic SSE) specifics that the shared
// conformance suite cannot express: the forward-privacy guarantee itself,
// per-keyword counter state round-trips, chain exhaustion, idempotent
// update replay, the sharded engine's one-walk search, concurrent owners
// through one engine, and the resume cache that lets a search stop where
// the keyword's last search did.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sse/core/registry.h"
#include "sse/core/scheme3_client.h"
#include "sse/core/scheme3_messages.h"
#include "sse/core/scheme3_server.h"
#include "sse/core/segment.h"
#include "sse/crypto/hash_chain.h"
#include "sse/engine/scheme3_adapter.h"
#include "sse/engine/server_engine.h"
#include "test_util.h"

namespace sse::core {
namespace {

using sse::testing::FastTestConfig;
using sse::testing::FromHex;
using sse::testing::MakeTestSystem;
using sse::testing::OverlappingIdLists;
using sse::testing::TestMasterKey;

Scheme3Client* ClientOf(SseSystem& sys) {
  return static_cast<Scheme3Client*>(sys.client.get());
}

TEST(Scheme3Test, SearchSortsOnceLikeMergePerEntry) {
  // The search walk appends every decrypted entry's ids and sorts once;
  // the result must be exactly the union a merge per entry builds.
  SchemeOptions options;
  options.chain_length = 256;
  Scheme3Server server(options);
  auto chain = crypto::HashChain::Create(Bytes(32, 0x22), options.chain_length);
  ASSERT_TRUE(chain.ok());
  DeterministicRandom rng(6);
  const std::vector<index::DocIdList> lists = OverlappingIdLists(40, 23);
  S3UpdateRequest update;
  index::DocIdList expected;
  for (size_t j = 0; j < lists.size(); ++j) {
    auto segment = SealSegment(
        *chain->KeyForCounter(static_cast<uint32_t>(j + 1)), lists[j], rng);
    ASSERT_TRUE(segment.ok());
    update.entries.push_back(S3UpdateEntry{segment->tag, segment->ciphertext});
    expected = index::MergeIdLists(expected, lists[j]);
  }
  ASSERT_TRUE(server.Handle(update.ToMessage()).ok());

  S3SearchRequest search;
  search.counter = static_cast<uint32_t>(lists.size());
  search.chain_element = *chain->KeyForCounter(search.counter);
  auto reply = server.Handle(search.ToMessage());
  ASSERT_TRUE(reply.ok());
  auto result = S3SearchResult::FromMessage(*reply);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ids, expected);
  EXPECT_EQ(result->entries_decrypted, lists.size());
}

TEST(Scheme3Test, ForwardPrivacy) {
  // THE property this scheme exists for: a trapdoor released at counter c
  // must not match updates made after it — the server walks the chain only
  // toward older keys.
  DeterministicRandom rng(41);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "old", {"kw"})}));

  auto trapdoor = ClientOf(sys)->MakeTrapdoor("kw");
  SSE_ASSERT_OK_RESULT(trapdoor);
  EXPECT_EQ(trapdoor->counter, 1u);

  // The update AFTER the trapdoor was released.
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "new", {"kw"})}));

  // Replay the stale trapdoor straight at the server: it opens exactly the
  // pre-update state, nothing newer.
  S3SearchRequest req;
  req.chain_element = trapdoor->chain_element;
  req.counter = trapdoor->counter;
  auto reply = sys.channel->Call(req.ToMessage());
  SSE_ASSERT_OK_RESULT(reply);
  auto stale = S3SearchResult::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(stale);
  EXPECT_EQ(stale->ids, std::vector<uint64_t>{0});
  EXPECT_EQ(stale->entries_decrypted, 1u);

  // A fresh trapdoor sees everything.
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1}));
}

TEST(Scheme3Test, VirginKeywordResolvesLocally) {
  // A keyword with no updates has nothing searchable and releases no
  // trapdoor — the search must not even touch the wire.
  DeterministicRandom rng(42);
  SystemConfig config = FastTestConfig();
  config.channel.record_transcript = true;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);

  auto outcome = sys.client->Search("never-stored");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_TRUE(outcome->ids.empty());
  EXPECT_TRUE(sys.channel->transcript().empty());

  auto trapdoor = ClientOf(sys)->MakeTrapdoor("never-stored");
  EXPECT_EQ(trapdoor.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Scheme3Test, CountersAdvancePerKeyword) {
  DeterministicRandom rng(43);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "a", {"x", "y"})}));
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "b", {"x"})}));
  Scheme3Client* client = ClientOf(sys);
  EXPECT_EQ(client->counter("x").value(), 2u);
  EXPECT_EQ(client->counter("y").value(), 1u);
  EXPECT_EQ(client->counter("z").value(), 0u);
}

TEST(Scheme3Test, ClientStateRoundTrip) {
  // A second client restored from serialized state continues the counter
  // sequence instead of shadowing earlier updates.
  DeterministicRandom rng(44);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "b", {"kw"})}));
  const Bytes state = sys.client->SerializeState();

  DeterministicRandom rng2(45);
  auto restored = Scheme3Client::Create(TestMasterKey(), FastTestConfig().scheme,
                                        sys.channel.get(), &rng2);
  SSE_ASSERT_OK_RESULT(restored);
  SSE_ASSERT_OK((*restored)->RestoreState(state));
  EXPECT_EQ((*restored)->counter("kw").value(), 2u);

  // Continues where the first client stopped: the old postings survive.
  SSE_ASSERT_OK((*restored)->Store({Document::Make(2, "c", {"kw"})}));
  auto outcome = (*restored)->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2}));

  // The used-id set restores too.
  Status dup = (*restored)->Store({Document::Make(0, "dup", {"kw"})});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(Scheme3Test, CorruptStateRejected) {
  DeterministicRandom rng(46);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng);
  EXPECT_FALSE(sys.client->RestoreState(Bytes{0xff, 0xff, 0xff}).ok());
}

TEST(Scheme3Test, ChainExhaustion) {
  DeterministicRandom rng(47);
  SystemConfig config = FastTestConfig();
  config.scheme.chain_length = 3;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  for (uint64_t i = 0; i < 3; ++i) {
    SSE_ASSERT_OK(sys.client->Store(
        {Document::Make(i, "doc" + std::to_string(i), {"kw"})}));
  }
  Status s = sys.client->Store({Document::Make(3, "one too many", {"kw"})});
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Existing postings still searchable after the refusal.
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(Scheme3Test, ReplayedUpdateIsIdempotent) {
  // A chain key is burned per logical update, so a re-delivered update
  // message carries the same address and delta; applying it twice must
  // not change what a search sees.
  DeterministicRandom rng(48);
  SystemConfig config = FastTestConfig();
  config.channel.record_transcript = true;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "a", {"kw"})}));
  const net::Message update = sys.channel->transcript().back().request;
  ASSERT_EQ(update.type, kMsgS3UpdateRequest);
  ASSERT_TRUE(sys.channel->Call(update).ok());
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
}

TEST(Scheme3Test, BatchedUpdatesAndMultiSearch) {
  DeterministicRandom rng(49);
  SystemConfig config = FastTestConfig();
  config.scheme.batch_ops = true;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  SSE_ASSERT_OK(sys.client->Store({
      Document::Make(0, "d0", {"x", "shared"}),
      Document::Make(1, "d1", {"y", "shared"}),
  }));
  auto outcomes = sys.client->MultiSearch({"x", "virgin", "shared", "y"});
  SSE_ASSERT_OK_RESULT(outcomes);
  ASSERT_EQ(outcomes->size(), 4u);
  EXPECT_EQ((*outcomes)[0].ids, std::vector<uint64_t>{0});
  EXPECT_TRUE((*outcomes)[1].ids.empty());
  EXPECT_EQ((*outcomes)[2].ids, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ((*outcomes)[3].ids, std::vector<uint64_t>{1});
}

/// A 4-shard Scheme 3 engine over `options`; aborts the test on failure.
std::unique_ptr<engine::ServerEngine> MakeScheme3Engine(
    const SchemeOptions& options) {
  engine::EngineOptions engine_options;
  engine_options.num_shards = 4;
  auto created = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme3Adapter>(options), engine_options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

TEST(Scheme3Test, ShardedEngineWalksTrapdoorOnce) {
  // With engine shards the per-update addresses scatter across shards.
  // The engine walks the trapdoor once and each shard opens only the
  // probes it owns, so a search costs one walk however many shards hold
  // the keyword's entries. The resume cache is off, so every search walks
  // in full.
  DeterministicRandom rng(50);
  SystemConfig config = FastTestConfig();
  config.scheme.server_plaintext_cache = false;
  config.engine_shards = 4;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < 16; ++i) {
    SSE_ASSERT_OK(sys.client->Store({Document::Make(
        i, "doc" + std::to_string(i),
        {"all", "mod" + std::to_string(i % 3)})}));
    expected.push_back(i);
  }
  auto outcome = sys.client->Search("all");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, expected);
  ASSERT_EQ(outcome->documents.size(), 16u);
  EXPECT_EQ(ClientOf(sys)->last_search_chain_steps(), 15u);
  EXPECT_EQ(ClientOf(sys)->last_search_entries_decrypted(), 16u);
  auto mod1 = sys.client->Search("mod1");
  SSE_ASSERT_OK_RESULT(mod1);
  EXPECT_EQ(mod1->ids, (std::vector<uint64_t>{1, 4, 7, 10, 13}));

  // The unsharded server, given the same Stores, reports the same ids and
  // the same work for every keyword.
  DeterministicRandom plain_rng(50);
  config.engine_shards = 0;
  SseSystem plain = MakeTestSystem(SystemKind::kScheme3, &plain_rng, config);
  for (uint64_t i = 0; i < 16; ++i) {
    SSE_ASSERT_OK(plain.client->Store({Document::Make(
        i, "doc" + std::to_string(i),
        {"all", "mod" + std::to_string(i % 3)})}));
  }
  for (const char* keyword : {"all", "mod0", "mod1", "mod2"}) {
    auto sharded_outcome = sys.client->Search(keyword);
    auto plain_outcome = plain.client->Search(keyword);
    SSE_ASSERT_OK_RESULT(sharded_outcome);
    SSE_ASSERT_OK_RESULT(plain_outcome);
    EXPECT_EQ(sharded_outcome->ids, plain_outcome->ids) << keyword;
    EXPECT_EQ(ClientOf(sys)->last_search_chain_steps(),
              ClientOf(plain)->last_search_chain_steps())
        << keyword;
    EXPECT_EQ(ClientOf(sys)->last_search_entries_decrypted(),
              ClientOf(plain)->last_search_entries_decrypted())
        << keyword;
  }

  // With the resume cache on, the first search walks in full, a repeat
  // walks nothing, and a search after one more Store walks one step.
  DeterministicRandom cached_rng(50);
  config = FastTestConfig();
  config.engine_shards = 4;
  SseSystem cached = MakeTestSystem(SystemKind::kScheme3, &cached_rng, config);
  for (uint64_t i = 0; i < 16; ++i) {
    SSE_ASSERT_OK(cached.client->Store(
        {Document::Make(i, "doc" + std::to_string(i), {"all"})}));
  }
  for (const auto& [steps, entries] :
       {std::pair<uint64_t, uint64_t>{15, 16}, {0, 0}}) {
    auto outcome = cached.client->Search("all");
    SSE_ASSERT_OK_RESULT(outcome);
    EXPECT_EQ(outcome->ids, expected);
    EXPECT_EQ(outcome->documents.size(), 16u);
    EXPECT_EQ(ClientOf(cached)->last_search_chain_steps(), steps);
    EXPECT_EQ(ClientOf(cached)->last_search_entries_decrypted(), entries);
  }
  SSE_ASSERT_OK(cached.client->Store({Document::Make(16, "doc16", {"all"})}));
  expected.push_back(16);
  auto grown = cached.client->Search("all");
  SSE_ASSERT_OK_RESULT(grown);
  EXPECT_EQ(grown->ids, expected);
  EXPECT_EQ(ClientOf(cached)->last_search_chain_steps(), 1u);
  EXPECT_EQ(ClientOf(cached)->last_search_entries_decrypted(), 1u);
}

TEST(Scheme3Test, TrapdoorInputIsCheckedByServerAndEngine) {
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme3Server server(options);
  std::unique_ptr<engine::ServerEngine> sharded = MakeScheme3Engine(options);
  for (net::MessageHandler* handler :
       {static_cast<net::MessageHandler*>(&server),
        static_cast<net::MessageHandler*>(sharded.get())}) {
    // A chain element is a 32-byte digest; anything else is refused
    // before the walk starts.
    S3SearchRequest req;
    req.counter = 2;
    for (size_t size : {0, 31, 33}) {
      req.chain_element = Bytes(size, 7);
      EXPECT_EQ(handler->Handle(req.ToMessage()).status().code(),
                StatusCode::kInvalidArgument)
          << size << "-byte element";
    }
    req.chain_element = Bytes(32, 7);
    req.counter = options.chain_length + 1;
    EXPECT_EQ(handler->Handle(req.ToMessage()).status().code(),
              StatusCode::kInvalidArgument);

    // A counter of 0 walks nothing and finds nothing.
    req.counter = 0;
    auto reply = handler->Handle(req.ToMessage());
    SSE_ASSERT_OK_RESULT(reply);
    auto result = S3SearchResult::FromMessage(*reply);
    SSE_ASSERT_OK_RESULT(result);
    EXPECT_FALSE(result->found);
    EXPECT_TRUE(result->ids.empty());
    EXPECT_EQ(result->chain_steps, 0u);
    EXPECT_EQ(result->entries_decrypted, 0u);
  }

  // Probe requests are the engine's own shard traffic: a client that
  // sends one is refused, not served by whichever shard it lands on.
  S3ProbeRequest probe;
  probe.probes.resize(1);
  EXPECT_EQ(sharded->Handle(probe.ToMessage()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Scheme3Test, WalkTrapdoorProbesEveryOlderPosition) {
  auto chain = crypto::HashChain::Create(Bytes(32, 0x33), 16);
  SSE_ASSERT_OK_RESULT(chain);
  auto newest = chain->KeyForCounter(5);
  SSE_ASSERT_OK_RESULT(newest);
  S3SearchRequest req;
  req.chain_element = *newest;
  req.counter = 5;
  auto walk = WalkTrapdoor(req, chain->length());
  SSE_ASSERT_OK_RESULT(walk);
  ASSERT_EQ(walk->probes.size(), 5u);
  EXPECT_EQ(walk->chain_steps, 4u);
  for (uint32_t ctr = 5; ctr >= 1; --ctr) {
    const S3Probe& probe = walk->probes[5 - ctr];
    auto key = chain->KeyForCounter(ctr);
    SSE_ASSERT_OK_RESULT(key);
    EXPECT_EQ(Bytes(probe.key.begin(), probe.key.end()), *key) << ctr;
    auto address = crypto::HashChain::Tag(*key);
    SSE_ASSERT_OK_RESULT(address);
    EXPECT_EQ(probe.address, *address) << ctr;
  }
  req.counter = 0;
  auto none = WalkTrapdoor(req, chain->length());
  SSE_ASSERT_OK_RESULT(none);
  EXPECT_TRUE(none->probes.empty());
  EXPECT_EQ(none->chain_steps, 0u);
}

TEST(Scheme3Test, WalkReadBeforeClearIsNotRemembered) {
  // An engine search reads the resume cache at Route and fills it at
  // Merge. A RestoreState in between empties the cache, and the walk that
  // read the old index must not refill it.
  auto chain = crypto::HashChain::Create(Bytes(32, 0x44), 16);
  SSE_ASSERT_OK_RESULT(chain);
  auto newest = chain->KeyForCounter(3);
  SSE_ASSERT_OK_RESULT(newest);
  S3SearchRequest req;
  req.chain_element = *newest;
  req.counter = 3;
  S3SearchResult opened;
  opened.ids = {1, 2, 3};
  opened.entries_decrypted = 3;

  std::unique_ptr<SearchCache> cache = NewResumeCache(FastTestConfig().scheme);
  auto walk = WalkTrapdoor(req, chain->length(), cache.get());
  SSE_ASSERT_OK_RESULT(walk);
  cache->Clear();
  S3SearchResult result = opened;
  FinishWalk(*walk, cache.get(), result);
  EXPECT_EQ(cache->entries(), 0u);

  walk = WalkTrapdoor(req, chain->length(), cache.get());
  SSE_ASSERT_OK_RESULT(walk);
  result = opened;
  FinishWalk(*walk, cache.get(), result);
  EXPECT_EQ(cache->entries(), 1u);
}

TEST(Scheme3Test, ConcurrentOwnersThroughOneEngine) {
  // Probes run under shared shard locks and updates under exclusive ones.
  // Several owners storing and searching through one 4-shard engine keep
  // both kinds racing on every shard, and with the resume cache on, on the
  // engine's one cache too; CI runs this suite under TSan and ASan.
  for (const bool resume : {false, true}) {
    SchemeOptions options = FastTestConfig().scheme;
    options.server_plaintext_cache = resume;
    std::unique_ptr<engine::ServerEngine> sharded = MakeScheme3Engine(options);
    constexpr uint64_t kOwners = 4;
    constexpr uint64_t kStores = 12;
    std::atomic<int> failures{0};
    std::vector<std::thread> owners;
    for (uint64_t t = 0; t < kOwners; ++t) {
      owners.emplace_back([&, t] {
        net::InProcessChannel channel(sharded.get());
        DeterministicRandom rng(60 + t);
        auto client =
            Scheme3Client::Create(TestMasterKey(), options, &channel, &rng);
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        const std::string own = "owner" + std::to_string(t);
        std::vector<uint64_t> expected;
        for (uint64_t i = 0; i < kStores; ++i) {
          const uint64_t id = t * kStores + i;
          const std::string group = own + "/" + std::to_string(i % 3);
          if (!(*client)->Store({Document::Make(id, "doc", {own, group})})
                   .ok()) {
            failures.fetch_add(1);
            continue;
          }
          expected.push_back(id);
          // Without the cache a search walks every update; with it, only
          // the one Stored since the owner's previous search.
          const uint64_t steps = resume ? std::min<uint64_t>(i, 1) : i;
          auto outcome = (*client)->Search(own);
          if (!outcome.ok() || outcome->ids != expected ||
              (*client)->last_search_chain_steps() != steps) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& owner : owners) owner.join();
    EXPECT_EQ(failures.load(), 0) << "resume cache " << resume;
  }
}

TEST(Scheme3Test, StaleTrapdoorIsForwardPrivateUnderEngine) {
  // Forward privacy holds through the sharded engine too: the engine's
  // one walk stops at the trapdoor counter.
  DeterministicRandom rng(51);
  SystemConfig config = FastTestConfig();
  config.engine_shards = 2;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "old", {"kw"})}));
  auto trapdoor = ClientOf(sys)->MakeTrapdoor("kw");
  SSE_ASSERT_OK_RESULT(trapdoor);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "new", {"kw"})}));

  S3SearchRequest req;
  req.chain_element = trapdoor->chain_element;
  req.counter = trapdoor->counter;
  auto reply = sys.channel->Call(req.ToMessage());
  SSE_ASSERT_OK_RESULT(reply);
  auto stale = S3SearchResult::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(stale);
  EXPECT_EQ(stale->ids, std::vector<uint64_t>{0});
}

/// Delivers calls through `inner`, except that it can hold back one: the
/// caller sees a transport failure, and the request reaches the server
/// only when Deliver() runs.
class HoldBackChannel : public net::Channel {
 public:
  explicit HoldBackChannel(net::Channel* inner) : inner_(inner) {}

  Result<net::Message> Call(const net::Message& request) override {
    if (!hold_next_) return inner_->Call(request);
    hold_next_ = false;
    held_ = request;
    return Status::IoError("request held back");
  }
  const net::ChannelStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  void HoldNext() { hold_next_ = true; }
  Result<net::Message> Deliver() { return inner_->Call(held_); }

 private:
  net::Channel* inner_;
  bool hold_next_ = false;
  net::Message held_;
};

/// The resume cache, run against the unsharded server (parameter 0) and a
/// 4-shard engine (parameter 4): the same client traffic must give the
/// same ids and the same work on both.
class Scheme3ResumeTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { Build(FastTestConfig().scheme); }

  void Build(const SchemeOptions& options) {
    client_.reset();
    hold_.reset();
    channel_.reset();
    if (GetParam() == 0) {
      server_ = std::make_unique<Scheme3Server>(options);
    } else {
      engine::EngineOptions engine_options;
      engine_options.num_shards = GetParam();
      auto engine = engine::ServerEngine::Create(
          std::make_unique<engine::Scheme3Adapter>(options), engine_options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      server_ = std::move(engine).value();
    }
    channel_ = std::make_unique<net::InProcessChannel>(server_.get());
    hold_ = std::make_unique<HoldBackChannel>(channel_.get());
    auto client =
        Scheme3Client::Create(TestMasterKey(), options, hold_.get(), &rng_);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(client).value();
  }

  /// The server's or the engine's resume cache.
  const SearchCache& cache() const {
    const SearchCache* cache =
        GetParam() == 0
            ? static_cast<const Scheme3Server&>(*server_).resume_cache()
            : static_cast<const engine::Scheme3Adapter&>(
                  static_cast<const engine::ServerEngine&>(*server_)
                      .adapter())
                  .resume_cache();
    EXPECT_NE(cache, nullptr);
    return *cache;
  }

  /// Stores documents `first`..`last` under `keyword`, one Store each.
  void StoreRange(uint64_t first, uint64_t last, const std::string& keyword) {
    for (uint64_t id = first; id <= last; ++id) {
      SSE_ASSERT_OK(client_->Store({Document::Make(id, "doc", {keyword})}));
    }
  }

  /// Searches `keyword` and checks the ids and the work the server reports.
  void ExpectSearch(const std::string& keyword,
                    const std::vector<uint64_t>& ids, uint64_t steps,
                    uint64_t entries) {
    auto outcome = client_->Search(keyword);
    SSE_ASSERT_OK_RESULT(outcome);
    EXPECT_EQ(outcome->ids, ids) << keyword;
    EXPECT_EQ(outcome->documents.size(), ids.size()) << keyword;
    EXPECT_EQ(client_->last_search_chain_steps(), steps) << keyword;
    EXPECT_EQ(client_->last_search_entries_decrypted(), entries) << keyword;
  }

  /// Sends a raw trapdoor straight to the server.
  Result<S3SearchResult> Replay(const Bytes& chain_element, uint32_t counter) {
    S3SearchRequest req;
    req.chain_element = chain_element;
    req.counter = counter;
    net::Message reply;
    SSE_ASSIGN_OR_RETURN(reply, channel_->Call(req.ToMessage()));
    return S3SearchResult::FromMessage(reply);
  }

  static std::vector<uint64_t> Ids(uint64_t first, uint64_t last) {
    std::vector<uint64_t> ids;
    for (uint64_t id = first; id <= last; ++id) ids.push_back(id);
    return ids;
  }

  DeterministicRandom rng_{70};
  std::unique_ptr<PersistableHandler> server_;
  std::unique_ptr<net::InProcessChannel> channel_;
  std::unique_ptr<HoldBackChannel> hold_;
  std::unique_ptr<Scheme3Client> client_;
};

TEST_P(Scheme3ResumeTest, RepeatSearchWalksOnlyNewUpdates) {
  // A search after k more Stores walks k steps and opens k entries, and
  // answers what a server without the cache answers.
  StoreRange(0, 9, "kw");
  ExpectSearch("kw", Ids(0, 9), 9, 10);
  EXPECT_EQ(cache().entries(), 1u);
  for (uint64_t k : {1, 3, 7}) {
    const uint64_t first = client_->counter("kw").value();
    StoreRange(first, first + k - 1, "kw");
    ExpectSearch("kw", Ids(0, first + k - 1), k, k);
  }
  ExpectSearch("kw", Ids(0, 20), 0, 0);
  // Each search replaced the entry it resumed from.
  EXPECT_EQ(cache().entries(), 1u);

  SchemeOptions off = FastTestConfig().scheme;
  off.server_plaintext_cache = false;
  Build(off);
  StoreRange(0, 20, "kw");
  ExpectSearch("kw", Ids(0, 20), 20, 21);
  ExpectSearch("kw", Ids(0, 20), 20, 21);
}

TEST_P(Scheme3ResumeTest, StaleTrapdoorStaysForwardPrivate) {
  // Forward privacy with the cache populated: a trapdoor released at
  // counter 2 opens exactly the two updates made before it, whether the
  // cache still holds its answer or the answer was superseded.
  StoreRange(0, 1, "kw");
  auto trapdoor = client_->MakeTrapdoor("kw");
  SSE_ASSERT_OK_RESULT(trapdoor);
  ExpectSearch("kw", Ids(0, 1), 1, 2);
  StoreRange(2, 3, "kw");

  auto remembered = Replay(trapdoor->chain_element, trapdoor->counter);
  SSE_ASSERT_OK_RESULT(remembered);
  EXPECT_EQ(remembered->ids, Ids(0, 1));
  EXPECT_EQ(remembered->chain_steps, 0u);
  EXPECT_EQ(remembered->entries_decrypted, 0u);

  ExpectSearch("kw", Ids(0, 3), 2, 2);
  StoreRange(4, 4, "kw");
  auto superseded = Replay(trapdoor->chain_element, trapdoor->counter);
  SSE_ASSERT_OK_RESULT(superseded);
  EXPECT_EQ(superseded->ids, Ids(0, 1));
  EXPECT_EQ(superseded->chain_steps, 1u);
  EXPECT_EQ(superseded->entries_decrypted, 2u);
  ExpectSearch("kw", Ids(0, 4), 1, 1);
}

TEST_P(Scheme3ResumeTest, HeldBackUpdateIsFoundOnceDelivered) {
  // An update whose request is held back burns its counter, so a search
  // walks past a position with no entry. That search must not be
  // remembered; once the request arrives, the next search finds it.
  StoreRange(0, 0, "kw");
  ExpectSearch("kw", {0}, 0, 1);
  hold_->HoldNext();
  EXPECT_FALSE(client_->Store({Document::Make(1, "late", {"kw"})}).ok());
  StoreRange(2, 2, "kw");
  ExpectSearch("kw", {0, 2}, 2, 1);
  EXPECT_EQ(cache().entries(), 1u);  // still only the first search's
  SSE_ASSERT_OK_RESULT(hold_->Deliver());
  ExpectSearch("kw", {0, 1, 2}, 2, 2);
  ExpectSearch("kw", {0, 1, 2}, 0, 0);
}

TEST_P(Scheme3ResumeTest, MismatchedCounterIsNeverResumedFrom) {
  // A request (k_5, c') with c' != 5 may leave an entry under f'(k_5), but
  // it is recorded for c' positions, so an honest walk that reaches k_5 as
  // position 5 walks on.
  StoreRange(0, 4, "kw");
  auto trapdoor = client_->MakeTrapdoor("kw");
  SSE_ASSERT_OK_RESULT(trapdoor);
  ASSERT_EQ(trapdoor->counter, 5u);
  // Three positions from k_5 open updates 5, 4 and 3: ids 4, 3 and 2.
  auto short_walk = Replay(trapdoor->chain_element, 3);
  SSE_ASSERT_OK_RESULT(short_walk);
  EXPECT_EQ(short_walk->ids, Ids(2, 4));
  // Seven positions from k_5 run past position 1 and open only five.
  auto long_walk = Replay(trapdoor->chain_element, 7);
  SSE_ASSERT_OK_RESULT(long_walk);
  EXPECT_EQ(long_walk->ids, Ids(0, 4));
  EXPECT_EQ(long_walk->entries_decrypted, 5u);

  StoreRange(5, 6, "kw");
  ExpectSearch("kw", Ids(0, 6), 6, 7);
  ExpectSearch("kw", Ids(0, 6), 0, 0);
}

TEST_P(Scheme3ResumeTest, RestoreForgetsWhatLaterStoresRevealed) {
  // A restored snapshot predates Stores a cached search has seen; the
  // search after the restore answers from the snapshot's index alone.
  StoreRange(0, 1, "kw");
  auto snapshot = server_->SerializeState();
  SSE_ASSERT_OK_RESULT(snapshot);
  StoreRange(2, 3, "kw");
  ExpectSearch("kw", Ids(0, 3), 3, 4);
  SSE_ASSERT_OK(server_->RestoreState(*snapshot));
  EXPECT_EQ(cache().entries(), 0u);
  ExpectSearch("kw", Ids(0, 1), 3, 2);
}

TEST_P(Scheme3ResumeTest, LruBoundEvictsAndAnswersStayCorrect) {
  SchemeOptions bounded = FastTestConfig().scheme;
  bounded.plaintext_cache_max_entries = 2;
  Build(bounded);
  StoreRange(0, 2, "a");
  StoreRange(3, 4, "b");
  StoreRange(5, 8, "c");
  ExpectSearch("a", Ids(0, 2), 2, 3);
  ExpectSearch("b", Ids(3, 4), 1, 2);
  ExpectSearch("c", Ids(5, 8), 3, 4);
  EXPECT_EQ(cache().entries(), 2u);
  EXPECT_EQ(cache().evictions(), 1u);  // "a", the least recently searched

  StoreRange(9, 9, "b");
  ExpectSearch("b", {3, 4, 9}, 1, 1);
  StoreRange(10, 10, "a");
  ExpectSearch("a", {0, 1, 2, 10}, 3, 4);  // evicted: walks in full
  ExpectSearch("c", Ids(5, 8), 3, 4);      // evicted by "a"'s answer
  EXPECT_EQ(cache().entries(), 2u);
  EXPECT_EQ(cache().evictions(), 3u);
}

INSTANTIATE_TEST_SUITE_P(ServerAndEngine, Scheme3ResumeTest,
                         ::testing::Values(size_t{0}, size_t{4}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 0 ? std::string("Unsharded")
                                                  : "Shards" +
                                                        std::to_string(
                                                            info.param);
                         });

// Known-answer vectors. Never regenerate them: they pin the chain
// elements, update addresses and ciphertexts earlier builds produced, so
// existing client state files, WALs and snapshots stay readable.

TEST(Scheme3KnownAnswerTest, TrapdoorsAndAddresses) {
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme3Server server(options);
  net::InProcessChannel::Options record;
  record.record_transcript = true;
  net::InProcessChannel channel(&server, record);
  DeterministicRandom rng(7);
  auto created =
      Scheme3Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(created);
  Scheme3Client& client = **created;

  SSE_ASSERT_OK(client.Store({Document::Make(0, "doc zero", {"alpha", "beta"}),
                              Document::Make(1, "doc one", {"alpha"})}));
  SSE_ASSERT_OK_RESULT(client.Search("alpha"));
  SSE_ASSERT_OK(client.Store({Document::Make(2, "doc two", {"beta", "gamma"})}));
  SSE_ASSERT_OK(client.Store({Document::Make(3, "doc three", {"alpha"})}));
  SSE_ASSERT_OK_RESULT(client.Search("zeta"));
  SSE_ASSERT_OK(client.FakeUpdate({"gamma", "delta", "gamma"}));

  struct TrapdoorVector {
    const char* keyword;
    uint32_t counter;
    const char* element;
  };
  const TrapdoorVector trapdoors[] = {
      {"alpha", 2,
       "35250457f3ac5a7a3abcadc279382ba053951c2aec1050c8af86d387ce71e68c"},
      {"gamma", 2,
       "33b26c5e3a3f91c88372957969bc6a79d2a080ec332dde36b08c85cdb8d207a8"},
  };
  for (const TrapdoorVector& v : trapdoors) {
    auto trapdoor = client.MakeTrapdoor(v.keyword);
    SSE_ASSERT_OK_RESULT(trapdoor);
    EXPECT_EQ(trapdoor->counter, v.counter) << v.keyword;
    EXPECT_EQ(HexEncode(trapdoor->chain_element), v.element) << v.keyword;
  }

  std::vector<std::string> addresses;
  for (const net::Exchange& exchange : channel.transcript()) {
    if (exchange.request.type != kMsgS3UpdateRequest) continue;
    auto req = S3UpdateRequest::FromMessage(exchange.request);
    SSE_ASSERT_OK_RESULT(req);
    for (const S3UpdateEntry& e : req->entries) {
      addresses.push_back(HexEncode(e.address));
    }
  }
  // alpha@1, beta@1 | beta@2, gamma@1 | alpha@2 | delta@1, gamma@2.
  EXPECT_EQ(addresses,
            (std::vector<std::string>{
                "3b5ee4d59b8587fa64b490b55423c15d13853e0c0c8496b69c5ea6b2c0d73624",
                "55d0103d126e7c79e49f679a8bb2f15955633966b6f8db296d13db5d7985ae75",
                "1a116f429a2a63f803beb5ee40eea564fd48025b2e9bc16819476543672ccff6",
                "e5e42d1d00cfc3d03d52e36227681a0a2c2945e2262a013a5a8973a2bc761323",
                "faf43626dbccd9be29497d0c19166b274295fda68257c06af4aa45816f066b3f",
                "e66357386a36869d20ba93569a4d95f72c62adf5ee6023d317f93a9abe27d9ba",
                "1b6e9826a25fc915be8fb720d43a240198e0aed84be47643cc8ccb27079d4cde",
            }));
}

TEST(Scheme3KnownAnswerTest, EarlierCiphertextsStillOpen) {
  // An index entry and a data item an earlier build sealed for document 5
  // under keyword "kat" at counter 1, plus the client state that update
  // left behind.
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme3Server server(options);
  S3UpdateRequest update;
  S3UpdateEntry entry;
  entry.address = FromHex(
      "79fcee295bacb9e814a9cfe63c78aafa0737fbdc8a1f3c6685d81621933b3003");
  entry.ciphertext = FromHex(
      "dfa73969c27f283981a0555c5ffe5416d356b61f42df90a51363fe6a4eb669130043ed"
      "3517ca69dd4a0ca560583395b65123");
  update.entries.push_back(std::move(entry));
  update.documents.push_back(WireDocument{
      5, FromHex("ad1436462868c93e384e49cef01ddcbddb85d4e9b28a86680649f8ba1b89"
                 "1ec15577730074b0fe1b3d")});
  SSE_ASSERT_OK_RESULT(server.Handle(update.ToMessage()));

  net::InProcessChannel channel(&server);
  DeterministicRandom rng(1);
  auto client = Scheme3Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->RestoreState(FromHex(
      "0120849b6971f8996a286a4d0f400ef3002fb5da8e64c33b92c270068aac6b77b48501"
      "000000" "0105")));
  auto outcome = (*client)->Search("kat");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{5});
  ASSERT_EQ(outcome->documents.size(), 1u);
  EXPECT_EQ(outcome->documents[0].first, 5u);
  EXPECT_EQ(BytesToString(outcome->documents[0].second), "kat plaintext");
}

}  // namespace
}  // namespace sse::core
