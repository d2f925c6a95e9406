// End-to-end request tracing: span recording and parenting, the wire
// trace header, propagation through the retry layer under chaos (attempt
// annotations, no trace-id corruption), through batch envelopes, and the
// full client → TCP → engine → WAL span tree with its Chrome trace-event
// export. The ConcurrentRecordCollect case is the TSan target for the
// lock-free collector.

#include "sse/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sse/core/durable_server.h"
#include "sse/core/scheme1_client.h"
#include "sse/engine/scheme1_adapter.h"
#include "sse/engine/server_engine.h"
#include "sse/net/chaos.h"
#include "sse/net/retry.h"
#include "sse/net/tcp.h"
#include "test_util.h"

namespace sse {
namespace {

using obs::ScopedSpan;
using obs::SpanCollector;
using obs::SpanRecord;
using obs::TraceContext;
using sse::testing::FastTestConfig;
using sse::testing::TempDir;
using sse::testing::TestMasterKey;

std::set<std::string> NamesOf(const std::vector<SpanRecord>& spans) {
  std::set<std::string> names;
  for (const SpanRecord& s : spans) names.insert(s.name);
  return names;
}

const SpanRecord* FindByName(const std::vector<SpanRecord>& spans,
                             const char* name) {
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == name) return &s;
  }
  return nullptr;
}

/// The name of the span `child` parents to; empty when it is not in
/// `spans`.
std::string ParentName(const std::vector<SpanRecord>& spans,
                       const SpanRecord& child) {
  for (const SpanRecord& s : spans) {
    if (s.span_id == child.parent_id) return s.name;
  }
  return "";
}

bool HasNote(const SpanRecord& span, const char* key, uint64_t* value) {
  for (uint32_t i = 0; i < span.note_count; ++i) {
    if (std::string(span.note_keys[i]) == key) {
      if (value != nullptr) *value = span.note_values[i];
      return true;
    }
  }
  return false;
}

TEST(ObsTraceTest, NestedSpansRecordWithParentLinks) {
  SpanCollector::Global().Clear();
  TraceContext root_ctx = obs::StartTrace();
  uint64_t outer_id = 0;
  {
    ScopedSpan outer("test.outer", root_ctx);
    ASSERT_TRUE(outer.active());
    outer_id = outer.context().span_id;
    outer.Annotate("answer", 42);
    ScopedSpan inner("test.inner");  // parents to thread-local current
    EXPECT_EQ(inner.context().trace_id, root_ctx.trace_id);
  }
  // Thread-local current is restored after the spans close.
  EXPECT_FALSE(obs::CurrentContext().active());

  const auto spans = SpanCollector::Global().CollectTrace(root_ctx.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* outer = FindByName(spans, "test.outer");
  const SpanRecord* inner = FindByName(spans, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(outer->span_id, outer_id);
  EXPECT_EQ(inner->parent_id, outer_id);
  EXPECT_GE(outer->end_ns, inner->end_ns);
  EXPECT_LE(outer->start_ns, inner->start_ns);
  uint64_t note = 0;
  EXPECT_TRUE(HasNote(*outer, "answer", &note));
  EXPECT_EQ(note, 42u);
}

TEST(ObsTraceTest, UnsampledSpansRecordNothing) {
  SpanCollector::Global().Clear();
  const uint64_t before = SpanCollector::Global().recorded();
  {
    ScopedSpan span("test.unsampled");  // no trace started on this thread
    EXPECT_FALSE(span.active());
    span.Annotate("ignored", 1);
  }
  EXPECT_EQ(SpanCollector::Global().recorded(), before);
  EXPECT_TRUE(SpanCollector::Global().Collect().empty());
}

TEST(ObsTraceTest, ClearHidesOldSpansAndKeepsNewOnes) {
  SpanCollector::Global().Clear();
  TraceContext ctx = obs::StartTrace();
  { ScopedSpan span("test.old", ctx); }
  ASSERT_EQ(SpanCollector::Global().Collect().size(), 1u);
  SpanCollector::Global().Clear();
  EXPECT_TRUE(SpanCollector::Global().Collect().empty());
  { ScopedSpan span("test.new", ctx); }
  const auto spans = SpanCollector::Global().Collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].name), "test.new");
}

TEST(ObsTraceTest, TraceHeaderSurvivesEncodeDecodeWithSession) {
  net::Message msg;
  msg.type = core::kMsgS1UpdateRequest;
  msg.payload = StringToBytes("payload-bytes");
  msg.StampSession(/*client=*/7, /*sequence=*/9);

  TraceContext ctx;
  ctx.trace_id = 0xdeadbeefcafe1234ull;
  ctx.span_id = 0x42ull;
  ctx.sampled = true;
  obs::StampMessage(&msg, ctx);
  ASSERT_TRUE(msg.has_trace);

  auto decoded = net::Message::Decode(msg.Encode());
  SSE_ASSERT_OK_RESULT(decoded);
  EXPECT_EQ(decoded->type, core::kMsgS1UpdateRequest);
  EXPECT_TRUE(decoded->has_session);  // CRC still validates with the header
  EXPECT_EQ(decoded->seq, 9u);
  const TraceContext wire = obs::ContextOf(*decoded);
  EXPECT_EQ(wire.trace_id, ctx.trace_id);
  EXPECT_EQ(wire.span_id, ctx.span_id);
  EXPECT_TRUE(wire.sampled);

  // Unstamped messages decode to an inactive context and cost no bytes.
  net::Message plain;
  plain.type = core::kMsgS1UpdateRequest;
  plain.payload = msg.payload;
  EXPECT_FALSE(obs::ContextOf(plain).active());
  EXPECT_EQ(plain.WireSize() + net::Message::kTraceHeaderSize +
                net::Message::kSessionHeaderSize,
            msg.WireSize());
}

TEST(ObsTraceTest, StampingIsANoOpForUnsampledContext) {
  net::Message msg;
  msg.type = core::kMsgS1UpdateRequest;
  obs::StampMessage(&msg, TraceContext{});
  EXPECT_FALSE(msg.has_trace);
}

TEST(ObsTraceTest, PropagationSurvivesRetriesUnderChaos) {
  SpanCollector::Global().Clear();
  core::SystemConfig config = FastTestConfig();
  config.engine_shards = 2;

  DeterministicRandom rng(11);
  core::SseSystem sys =
      sse::testing::MakeTestSystem(core::SystemKind::kScheme1, &rng, config);
  net::ChaosOptions chaos_opts;
  chaos_opts.seed = 11;
  chaos_opts.p_request_drop = 0.25;
  chaos_opts.p_reply_drop = 0.25;
  chaos_opts.p_request_corrupt = 0.1;
  net::ChaosChannel chaos(sys.channel.get(), chaos_opts);
  chaos.set_sleep_fn([](double) {});
  net::RetryOptions retry_opts;
  retry_opts.max_attempts = 64;
  retry_opts.initial_backoff_ms = 0.01;
  retry_opts.max_backoff_ms = 0.1;
  net::RetryingChannel retry(&chaos, retry_opts, &rng);
  retry.set_sleep_fn([](double) {});
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), config.scheme, &retry, &rng);
  SSE_ASSERT_OK_RESULT(client);

  TraceContext root_ctx = obs::StartTrace();
  {
    ScopedSpan root("test.chaos_ops", root_ctx);
    for (uint64_t id = 0; id < 12; ++id) {
      SSE_ASSERT_OK((*client)->Store({core::Document::Make(
          id, "doc", {"kw" + std::to_string(id % 3)})}));
    }
    auto outcome = (*client)->Search("kw1");
    SSE_ASSERT_OK_RESULT(outcome);
    EXPECT_FALSE(outcome->ids.empty());
  }
  ASSERT_GT(retry.retry_stats().retries, 0u) << "chaos did not bite";

  const auto spans = SpanCollector::Global().CollectTrace(root_ctx.trace_id);
  const auto names = NamesOf(spans);
  EXPECT_TRUE(names.count("rpc.call")) << "got: " << names.size();
  EXPECT_TRUE(names.count("rpc.attempt"));
  EXPECT_TRUE(names.count("engine.handle"));
  EXPECT_TRUE(names.count("engine.shard"));

  // Every attempt span is annotated with its attempt number, and retries
  // show up as attempt >= 2 under the *same* trace — the retry loop
  // re-stamps the trace header without corrupting the trace id.
  uint64_t max_attempt = 0;
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_id, root_ctx.trace_id);
    if (std::string(s.name) == "rpc.attempt") {
      uint64_t attempt = 0;
      EXPECT_TRUE(HasNote(s, "attempt", &attempt));
      max_attempt = std::max(max_attempt, attempt);
    }
  }
  EXPECT_GE(max_attempt, 2u);

  // Spans recorded for other traces (none started) or corrupted ids would
  // show up here: everything recorded belongs to our one trace.
  for (const SpanRecord& s : SpanCollector::Global().Collect()) {
    EXPECT_EQ(s.trace_id, root_ctx.trace_id) << s.name;
  }
}

TEST(ObsTraceTest, PropagationThroughBatchEnvelopes) {
  SpanCollector::Global().Clear();
  core::SystemConfig config = FastTestConfig();
  config.engine_shards = 2;
  config.scheme.batch_ops = true;

  DeterministicRandom rng(13);
  core::SseSystem sys =
      sse::testing::MakeTestSystem(core::SystemKind::kScheme1, &rng, config);
  net::RetryOptions retry_opts;
  retry_opts.batch_size = 4;
  retry_opts.max_inflight = 2;
  net::RetryingChannel retry(sys.channel.get(), retry_opts, &rng);
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), config.scheme, &retry, &rng);
  SSE_ASSERT_OK_RESULT(client);

  TraceContext root_ctx = obs::StartTrace();
  {
    ScopedSpan root("test.batched", root_ctx);
    std::vector<core::Document> docs;
    for (uint64_t id = 0; id < 8; ++id) {
      docs.push_back(core::Document::Make(id, "doc", {"kw"}));
    }
    SSE_ASSERT_OK((*client)->Store(docs));
  }
  ASSERT_GT(retry.retry_stats().batches, 0u) << "batch path not exercised";

  const auto spans = SpanCollector::Global().CollectTrace(root_ctx.trace_id);
  const auto names = NamesOf(spans);
  EXPECT_TRUE(names.count("rpc.multicall"));
  EXPECT_TRUE(names.count("rpc.envelope"));
  EXPECT_TRUE(names.count("engine.batch_op"));
  const SpanRecord* envelope = FindByName(spans, "rpc.envelope");
  ASSERT_NE(envelope, nullptr);
  EXPECT_TRUE(HasNote(*envelope, "ops", nullptr));
  // Each round here fits one envelope, whose span stays open while the
  // frame is handled, so the server's work parents to it.
  size_t handled = 0;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "engine.handle") {
      ++handled;
      EXPECT_EQ(ParentName(spans, s), "rpc.envelope");
    }
  }
  EXPECT_GT(handled, 0u);
}

TEST(ObsTraceTest, FullStackSpanTreeOverTcpExportsChromeJson) {
  SpanCollector::Global().Clear();
  TempDir dir;
  core::SchemeOptions options = FastTestConfig().scheme;

  engine::EngineOptions engine_opts;
  engine_opts.num_shards = 2;  // no engine reply cache: the shell dedups
  auto engine = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme1Adapter>(options), engine_opts);
  SSE_ASSERT_OK_RESULT(engine);
  auto durable = core::DurableServer::Open(dir.path(), engine->get());
  SSE_ASSERT_OK_RESULT(durable);
  net::TcpServer::Options server_opts;
  server_opts.serialize_handler = false;
  auto tcp = net::TcpServer::Start(durable->get(), 0, server_opts);
  ASSERT_TRUE(tcp.ok());
  auto channel = net::TcpChannel::Connect((*tcp)->port());
  ASSERT_TRUE(channel.ok());

  DeterministicRandom rng(17);
  net::RetryingChannel retry(channel->get(), net::RetryOptions{}, &rng);
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), options, &retry, &rng);
  SSE_ASSERT_OK_RESULT(client);

  TraceContext root_ctx = obs::StartTrace();
  {
    ScopedSpan root("test.traced_search", root_ctx);
    SSE_ASSERT_OK(
        (*client)->Store({core::Document::Make(0, "doc", {"needle"})}));
    auto outcome = (*client)->Search("needle");
    SSE_ASSERT_OK_RESULT(outcome);
    EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
  }

  const auto spans = SpanCollector::Global().CollectTrace(root_ctx.trace_id);
  const auto names = NamesOf(spans);
  // The acceptance tree: client call -> retry attempt -> frame send ->
  // server dispatch -> engine -> shard, plus WAL append for the update.
  for (const char* required :
       {"test.traced_search", "rpc.call", "rpc.attempt", "net.send_frame",
        "server.dispatch", "engine.handle", "engine.shard", "wal.append"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }

  // Each attempt's frame carries its attempt span across the wire.
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "server.dispatch") {
      EXPECT_EQ(ParentName(spans, s), "rpc.attempt");
    }
  }

  // Parent links all resolve inside the trace: the tree is connected even
  // though client and server spans were recorded on different threads.
  std::set<uint64_t> ids;
  for (const SpanRecord& s : spans) ids.insert(s.span_id);
  for (const SpanRecord& s : spans) {
    if (s.parent_id == 0) {
      EXPECT_EQ(std::string(s.name), "test.traced_search");
    } else {
      EXPECT_TRUE(ids.count(s.parent_id))
          << s.name << " parent " << s.parent_id << " not in trace";
    }
  }

  // Chrome trace-event export: one complete event per span, structurally
  // valid JSON (balanced braces/brackets outside strings).
  const std::string json = SpanCollector::ToChromeTraceJson(spans);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 60);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"server.dispatch\""), std::string::npos);
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  const size_t events = [&] {
    size_t n = 0;
    for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
         pos = json.find("\"ph\":\"X\"", pos + 1)) {
      ++n;
    }
    return n;
  }();
  EXPECT_EQ(events, spans.size());
}

TEST(ObsTraceTest, ConcurrentRecordCollect) {
  // TSan target: writers hammer their per-thread rings (wrapping them
  // several times) while readers Collect and Clear concurrently. Collected
  // spans must always be intact — a torn read would surface as a mixed-up
  // name/id pair or inverted interval.
  SpanCollector::Global().Clear();
  constexpr int kWriters = 4;
  constexpr int kSpansPerWriter = 4000;  // ~4x ring capacity
  std::atomic<bool> stop{false};
  std::atomic<int> done{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &done] {
      TraceContext ctx = obs::StartTrace();
      for (int i = 0; i < kSpansPerWriter; ++i) {
        ScopedSpan span(w % 2 == 0 ? "test.even" : "test.odd", ctx);
        span.Annotate("i", static_cast<uint64_t>(i));
      }
      done.fetch_add(1);
    });
  }
  std::thread reader([&stop] {
    while (!stop.load()) {
      for (const SpanRecord& s : SpanCollector::Global().Collect()) {
        const std::string name = s.name;
        ASSERT_TRUE(name == "test.even" || name == "test.odd") << name;
        ASSERT_NE(s.trace_id, 0u);
        ASSERT_GE(s.end_ns, s.start_ns);
        ASSERT_LE(s.note_count, SpanRecord::kMaxNotes);
      }
    }
  });
  std::thread clearer([&stop] {
    while (!stop.load()) {
      SpanCollector::Global().Clear();
      std::this_thread::yield();
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  clearer.join();
  EXPECT_EQ(done.load(), kWriters);
  EXPECT_GE(SpanCollector::Global().recorded(),
            static_cast<uint64_t>(kWriters) * kSpansPerWriter);
}

}  // namespace
}  // namespace sse
