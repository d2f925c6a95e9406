// Whole-stack integrations that cross module boundaries in combinations
// the per-module suites do not: TCP + durable server + checkpoint, and
// padding + PHR application composition.

#include <gtest/gtest.h>

#include "sse/core/durable_server.h"
#include "sse/core/padding.h"
#include "sse/core/registry.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_server.h"
#include "sse/net/tcp.h"
#include "sse/phr/phr_store.h"
#include "sse/security/leakage.h"
#include "test_util.h"

namespace sse {
namespace {

using core::Document;
using sse::testing::FastTestConfig;
using sse::testing::TempDir;
using sse::testing::TestMasterKey;

TEST(IntegrationStackTest, TcpDurableCheckpointScheme2) {
  TempDir dir;
  const core::SchemeOptions options = FastTestConfig().scheme;

  Bytes client_state;
  // Session 1: full stack — TCP sockets, WAL journaling, a checkpoint.
  {
    core::Scheme2Server inner(options);
    auto durable = core::DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    auto tcp = net::TcpServer::Start(durable->get());
    ASSERT_TRUE(tcp.ok());
    auto channel = net::TcpChannel::Connect((*tcp)->port());
    ASSERT_TRUE(channel.ok());

    DeterministicRandom rng(1);
    auto client = core::Scheme2Client::Create(TestMasterKey(), options,
                                              channel->get(), &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK(
        (*client)->Store({Document::Make(0, "first", {"kw", "one"})}));
    // The snapshot carries document 0's ciphertext with the index;
    // document 1 is only in the WAL.
    SSE_ASSERT_OK((*durable)->Checkpoint());
    SSE_ASSERT_OK((*client)->Store({Document::Make(1, "second", {"kw"})}));
    auto outcome = (*client)->Search("kw");
    SSE_ASSERT_OK_RESULT(outcome);
    EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1}));
    client_state = (*client)->SerializeState();
  }

  // Session 2: recover snapshot + WAL and keep serving over new sockets.
  {
    core::Scheme2Server inner(options);
    auto durable = core::DurableServer::Open(dir.path(), &inner);
    SSE_ASSERT_OK_RESULT(durable);
    EXPECT_EQ(inner.document_count(), 2u);
    auto tcp = net::TcpServer::Start(durable->get());
    ASSERT_TRUE(tcp.ok());
    auto channel = net::TcpChannel::Connect((*tcp)->port());
    ASSERT_TRUE(channel.ok());

    DeterministicRandom rng(2);
    auto client = core::Scheme2Client::Create(TestMasterKey(), options,
                                              channel->get(), &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK((*client)->RestoreState(client_state));
    auto outcome = (*client)->Search("one");
    SSE_ASSERT_OK_RESULT(outcome);
    ASSERT_EQ(outcome->documents.size(), 1u);
    EXPECT_EQ(BytesToString(outcome->documents[0].second), "first");
    SSE_ASSERT_OK((*client)->Store({Document::Make(2, "third", {"kw"})}));
    EXPECT_EQ((*client)->Search("kw")->ids.size(), 3u);
  }
}

TEST(IntegrationStackTest, PaddedPhrStoreHidesVisitSizes) {
  // The PHR application composed with the padding decorator: a GP's
  // update sizes are flattened while all queries stay correct.
  DeterministicRandom rng(3);
  core::SystemConfig config = FastTestConfig();
  config.channel.record_transcript = true;
  core::SseSystem sys =
      sse::testing::MakeTestSystem(core::SystemKind::kScheme2, &rng, config);
  core::PaddingPolicy policy;
  policy.mode = core::PaddingPolicy::Mode::kFixedBucket;
  policy.bucket = 16;
  core::PaddedClient padded(sys.client.get(), policy, &rng);
  phr::PhrStore store(&padded);

  phr::PatientRecord small;
  small.patient_id = "p1";
  small.visit_date = "2026-07-01";
  small.conditions = {"asthma"};
  SSE_ASSERT_OK(store.AddRecord(small));

  phr::PatientRecord big;
  big.patient_id = "p2";
  big.visit_date = "2026-07-02";
  big.conditions = {"hypertension", "gout", "eczema"};
  big.medications = {"lisinopril", "allopurinol"};
  big.allergies = {"penicillin"};
  big.notes = "long narrative with many distinct informative words inside";
  SSE_ASSERT_OK(store.AddRecord(big));

  // Both updates carried exactly 16 keyword entries on the wire.
  security::LeakageReport report =
      security::AnalyzeTranscript(sys.channel->transcript());
  ASSERT_EQ(report.update_keyword_counts.size(), 2u);
  EXPECT_EQ(report.update_keyword_counts[0], 16u);
  EXPECT_EQ(report.update_keyword_counts[1], 16u);

  // Queries behave as if no padding existed.
  auto p2 = store.FindByPatient("p2");
  SSE_ASSERT_OK_RESULT(p2);
  ASSERT_EQ(p2->size(), 1u);
  EXPECT_EQ((*p2)[0].conditions.size(), 3u);
  auto gout = store.FindByCondition("gout");
  SSE_ASSERT_OK_RESULT(gout);
  EXPECT_EQ(gout->size(), 1u);
}

}  // namespace
}  // namespace sse
