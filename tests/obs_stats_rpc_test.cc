// The kMsgStats admin RPC: payload round trips, TcpServer answers scrapes
// from the process-wide registry (including the WAL and net series the
// acceptance criteria name), spans ride along when asked for, and the
// opt-out forwards the frame to the handler like any other message.

#include "sse/obs/stats_rpc.h"

#include <gtest/gtest.h>

#include <string>

#include "sse/core/durable_server.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme1_server.h"
#include "sse/net/retry.h"
#include "sse/net/tcp.h"
#include "sse/obs/metrics_registry.h"
#include "sse/obs/trace.h"
#include "test_util.h"

namespace sse {
namespace {

using obs::StatsReply;
using obs::StatsRequest;
using sse::testing::FastTestConfig;
using sse::testing::TempDir;
using sse::testing::TestMasterKey;

TEST(ObsStatsRpcTest, PayloadsRoundTrip) {
  StatsRequest req;
  req.include_spans = true;
  auto req2 = StatsRequest::FromMessage(req.ToMessage());
  SSE_ASSERT_OK_RESULT(req2);
  EXPECT_TRUE(req2->include_spans);

  StatsReply reply;
  reply.prometheus_text = "a_total 1\n";
  reply.spans_json = "{\"traceEvents\":[]}";
  auto reply2 = StatsReply::FromMessage(reply.ToMessage());
  SSE_ASSERT_OK_RESULT(reply2);
  EXPECT_EQ(reply2->prometheus_text, reply.prometheus_text);
  EXPECT_EQ(reply2->spans_json, reply.spans_json);

  // A non-stats message is rejected, not misparsed.
  net::Message wrong;
  wrong.type = core::kMsgS1SearchRequest;
  EXPECT_FALSE(StatsRequest::FromMessage(wrong).ok());
  EXPECT_FALSE(StatsReply::FromMessage(wrong).ok());
}

TEST(ObsStatsRpcTest, TcpScrapeReturnsWalAndNetSeries) {
  obs::SpanCollector::Global().Clear();
  TempDir dir;
  core::SchemeOptions options = FastTestConfig().scheme;
  core::Scheme1Server inner(options);
  auto durable = core::DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);
  auto tcp = net::TcpServer::Start(durable->get());
  ASSERT_TRUE(tcp.ok());
  auto channel = net::TcpChannel::Connect((*tcp)->port());
  ASSERT_TRUE(channel.ok());

  // Generate traffic (and one sampled trace) so the scrape has content.
  // The retry layer is what stamps the wire trace header, so the client
  // goes through it like real deployments do.
  DeterministicRandom rng(19);
  net::RetryingChannel retry(channel->get(), net::RetryOptions{}, &rng);
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), options, &retry, &rng);
  SSE_ASSERT_OK_RESULT(client);
  {
    obs::ScopedSpan root("test.scrape_traffic", obs::StartTrace());
    SSE_ASSERT_OK(
        (*client)->Store({core::Document::Make(0, "doc", {"kw"})}));
    auto outcome = (*client)->Search("kw");
    SSE_ASSERT_OK_RESULT(outcome);
  }

  StatsRequest req;
  req.include_spans = true;
  auto raw = (*channel)->Call(req.ToMessage());
  SSE_ASSERT_OK_RESULT(raw);
  auto reply = StatsReply::FromMessage(*raw);
  SSE_ASSERT_OK_RESULT(reply);

  const std::string& text = reply->prometheus_text;
  // Parseable Prometheus text: every non-comment line is "name[{labels}] value".
  size_t samples = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    char* parse_end = nullptr;
    std::strtod(line.c_str() + space + 1, &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    ++samples;
  }
  EXPECT_GT(samples, 10u);

  // The series the acceptance criteria name: WAL fsync/append histograms
  // (registered by the durable server, exercised by the Store) and the
  // net-layer counters (exercised by this very connection).
  EXPECT_NE(text.find("sse_wal_fsync_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("sse_wal_append_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("sse_net_server_frames_total"), std::string::npos);
  EXPECT_NE(text.find("sse_net_client_frames_sent_total"), std::string::npos);
  EXPECT_NE(text.find("sse_storage_degraded 0"), std::string::npos);
  // The Store actually journaled: the append histogram counted it.
  const std::string append_count = "sse_wal_append_seconds_count ";
  const size_t pos = text.find(append_count);
  ASSERT_NE(pos, std::string::npos);
  EXPECT_GT(std::strtod(text.c_str() + pos + append_count.size(), nullptr),
            0.0);

  // Spans were requested: the traced Store/Search shows up in the export.
  EXPECT_EQ(reply->spans_json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(reply->spans_json.find("server.dispatch"), std::string::npos);
}

TEST(ObsStatsRpcTest, SpansOmittedUnlessRequested) {
  net::Message req = StatsRequest{}.ToMessage();
  auto reply = StatsReply::FromMessage(obs::HandleStatsRequest(req));
  SSE_ASSERT_OK_RESULT(reply);
  EXPECT_TRUE(reply->spans_json.empty());
  EXPECT_FALSE(reply->prometheus_text.empty());
}

TEST(ObsStatsRpcTest, SessionStampIsEchoed) {
  net::Message req = StatsRequest{}.ToMessage();
  req.StampSession(/*client=*/5, /*sequence=*/77);
  const net::Message reply = obs::HandleStatsRequest(req);
  EXPECT_TRUE(reply.has_session);
  EXPECT_EQ(reply.client_id, 5u);
  EXPECT_EQ(reply.seq, 77u);
}

TEST(ObsStatsRpcTest, ServeStatsOptOutForwardsToHandler) {
  TempDir dir;
  core::SchemeOptions options = FastTestConfig().scheme;
  core::Scheme1Server inner(options);
  net::TcpServer::Options server_opts;
  server_opts.serve_stats = false;
  auto tcp = net::TcpServer::Start(&inner, 0, server_opts);
  ASSERT_TRUE(tcp.ok());
  auto channel = net::TcpChannel::Connect((*tcp)->port());
  ASSERT_TRUE(channel.ok());
  // The scheme server does not speak kMsgStats: the call surfaces its
  // error instead of being answered by the transport.
  auto raw = (*channel)->Call(StatsRequest{}.ToMessage());
  EXPECT_FALSE(raw.ok());
}

}  // namespace
}  // namespace sse
