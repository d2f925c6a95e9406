#include "sse/net/reactor.h"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <random>
#include <vector>

#include "sse/net/frame.h"
#include "test_util.h"

namespace sse::net {
namespace {

using sse::testing::FrameBytes;

// ------------------------------------------------------------- framing --

Bytes MakePayload(size_t size, uint32_t seed) {
  Bytes payload(size);
  uint32_t x = seed * 2654435761u + 1;
  for (size_t i = 0; i < size; ++i) {
    x = x * 1664525u + 1013904223u;
    payload[i] = static_cast<uint8_t>(x >> 24);
  }
  return payload;
}

TEST(FrameAssemblerTest, RoundTripOneByteAtATime) {
  const std::vector<Bytes> payloads = {
      MakePayload(1, 1), MakePayload(0, 2), MakePayload(300, 3),
      MakePayload(17, 4)};
  Bytes wire;
  for (const Bytes& p : payloads) {
    Bytes framed = FrameBytes(p);
    wire.insert(wire.end(), framed.begin(), framed.end());
  }

  FrameAssembler assembler;
  std::vector<Bytes> out;
  for (const uint8_t byte : wire) {
    ASSERT_TRUE(assembler.Feed(&byte, 1).ok());
    Bytes frame;
    while (assembler.Next(&frame)) out.push_back(std::move(frame));
  }
  ASSERT_EQ(out.size(), payloads.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], payloads[i]);
  EXPECT_FALSE(assembler.mid_frame());
  EXPECT_EQ(assembler.partial_bytes(), 0u);
}

TEST(FrameAssemblerTest, TornPrefixReportsMidFrame) {
  const Bytes payload = MakePayload(64, 9);
  const Bytes framed = FrameBytes(payload);
  FrameAssembler assembler;

  // Two bytes of the length prefix: mid-frame, nothing ready.
  ASSERT_TRUE(assembler.Feed(framed.data(), 2).ok());
  EXPECT_TRUE(assembler.mid_frame());
  EXPECT_EQ(assembler.ready(), 0u);
  EXPECT_EQ(assembler.partial_bytes(), 2u);

  // Rest of the prefix plus half the payload: still mid-frame.
  ASSERT_TRUE(assembler.Feed(framed.data() + 2, 2 + 32).ok());
  EXPECT_TRUE(assembler.mid_frame());
  EXPECT_EQ(assembler.ready(), 0u);

  // The tail completes it.
  ASSERT_TRUE(assembler.Feed(framed.data() + 36, framed.size() - 36).ok());
  EXPECT_FALSE(assembler.mid_frame());
  Bytes out;
  ASSERT_TRUE(assembler.Next(&out));
  EXPECT_EQ(out, payload);
}

TEST(FrameAssemblerTest, ZeroLengthFramesAreFrames) {
  FrameAssembler assembler;
  const Bytes framed = FrameBytes(Bytes{});
  ASSERT_TRUE(assembler.Feed(framed.data(), framed.size()).ok());
  ASSERT_TRUE(assembler.Feed(framed.data(), framed.size()).ok());
  Bytes out{1, 2, 3};
  ASSERT_TRUE(assembler.Next(&out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(assembler.Next(&out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(assembler.Next(&out));
}

TEST(FrameAssemblerTest, FuzzRandomChunkingPreservesFrameSequence) {
  // Deterministic fuzz: random payload sizes reassembled from random
  // chunk sizes must reproduce the exact frame sequence, regardless of
  // where the stream tears.
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<size_t> payload_size(0, 4096);

  std::vector<Bytes> payloads;
  Bytes wire;
  for (int i = 0; i < 200; ++i) {
    payloads.push_back(MakePayload(payload_size(rng), static_cast<uint32_t>(i)));
    Bytes framed = FrameBytes(payloads.back());
    wire.insert(wire.end(), framed.begin(), framed.end());
  }

  FrameAssembler assembler;
  std::vector<Bytes> out;
  std::uniform_int_distribution<size_t> chunk_size(1, 7000);
  size_t pos = 0;
  while (pos < wire.size()) {
    const size_t take = std::min(chunk_size(rng), wire.size() - pos);
    ASSERT_TRUE(assembler.Feed(wire.data() + pos, take).ok());
    pos += take;
    Bytes frame;
    while (assembler.Next(&frame)) out.push_back(std::move(frame));
  }
  ASSERT_EQ(out.size(), payloads.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], payloads[i]);
  EXPECT_FALSE(assembler.mid_frame());
}

TEST(FrameAssemblerTest, OversizeFramePoisonsTheStream) {
  FrameAssembler assembler(/*max_frame=*/1024);
  Bytes huge_header = FrameBytes(Bytes{});  // patch the length below
  const uint32_t huge = 4096;
  for (size_t i = 0; i < kFrameHeaderSize; ++i) {
    huge_header[i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  Status status = assembler.Feed(huge_header.data(), kFrameHeaderSize);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kProtocolError);

  // Poisoned: even valid bytes are rejected — the stream cannot be
  // resynchronized after a framing breach.
  const Bytes valid = FrameBytes(Bytes{1});
  EXPECT_FALSE(assembler.Feed(valid.data(), valid.size()).ok());

  // Reset (a fresh connection) clears the poison.
  assembler.Reset();
  ASSERT_TRUE(assembler.Feed(valid.data(), valid.size()).ok());
  Bytes out;
  ASSERT_TRUE(assembler.Next(&out));
  EXPECT_EQ(out, Bytes{1});
}

TEST(FrameAssemblerTest, OversizeRejectedBeforePayloadArrives) {
  // The length check happens on the prefix alone: a would-be 1 GiB bomb
  // is refused without buffering any payload bytes.
  FrameAssembler assembler(/*max_frame=*/16);
  Bytes framed = FrameBytes(MakePayload(17, 5));
  EXPECT_FALSE(assembler.Feed(framed.data(), framed.size()).ok());
  // Only the 4 prefix bytes were ever buffered — none of the payload.
  EXPECT_LE(assembler.partial_bytes(), kFrameHeaderSize);
}

// ---------------------------------------------------------- event loop --

TEST(EventLoopTest, PostRunsClosuresOnTheLoopThread) {
  EventLoop loop;
  loop.Start();
  std::mutex mu;
  std::condition_variable cv;
  int ran = 0;
  bool on_loop_thread = false;
  for (int i = 0; i < 3; ++i) {
    loop.Post([&] {
      std::lock_guard<std::mutex> lock(mu);
      on_loop_thread = loop.InLoopThread();
      ran += 1;
      cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return ran == 3; }));
    EXPECT_TRUE(on_loop_thread);
  }
  EXPECT_FALSE(loop.InLoopThread());
  loop.Stop();
}

TEST(EventLoopTest, RunInLoopIsInlineOnTheLoopThread) {
  EventLoop loop;
  loop.Start();
  std::mutex mu;
  std::condition_variable cv;
  bool inner_ran = false;
  loop.RunInLoop([&] {
    // Already on the loop thread: the nested call must run synchronously,
    // not deadlock waiting for another wake cycle.
    loop.RunInLoop([&] {
      std::lock_guard<std::mutex> lock(mu);
      inner_ran = true;
      cv.notify_one();
    });
    EXPECT_TRUE(inner_ran);
  });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return inner_ran; }));
  loop.Stop();
}

TEST(EventLoopTest, StopRunsPendingClosuresAndIsIdempotent) {
  EventLoop loop;
  loop.Start();
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    loop.Post([&] { ran.fetch_add(1); });
  }
  loop.Stop();
  EXPECT_EQ(ran.load(), 10);
  loop.Stop();  // no-op
}

/// Counts readiness callbacks for one eventfd.
class CountingHandler : public EventLoop::Handler {
 public:
  void OnEvents(uint32_t events) override {
    if ((events & EPOLLIN) != 0) fired_.fetch_add(1);
  }
  std::atomic<int> fired_{0};
};

TEST(EventLoopTest, RegisteredFdGetsReadinessEvents) {
  EventLoop loop;
  loop.Start();
  const int efd = ::eventfd(0, EFD_NONBLOCK);
  ASSERT_GE(efd, 0);
  CountingHandler handler;
  loop.RunInLoop([&] {
    ASSERT_TRUE(loop.InLoopThread());
    ASSERT_TRUE(loop.Add(efd, EPOLLIN, &handler).ok());
  });

  const uint64_t one = 1;
  ASSERT_EQ(::write(efd, &one, sizeof(one)), static_cast<ssize_t>(sizeof(one)));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (handler.fired_.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(handler.fired_.load(), 0);

  // Del mid-flight: the loop must never touch the handler again even
  // though the fd stays readable (level-triggered).
  loop.RunInLoop([&] { loop.Del(efd); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int fired_after_del = handler.fired_.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(handler.fired_.load(), fired_after_del);
  loop.Stop();
  ::close(efd);
}

TEST(ReactorTest, NextLoopRoundRobinsAcrossAllLoops) {
  Reactor reactor(3);
  reactor.Start();
  EXPECT_EQ(reactor.loop_count(), 3u);
  std::map<EventLoop*, int> hits;
  for (int i = 0; i < 9; ++i) hits[reactor.NextLoop()] += 1;
  EXPECT_EQ(hits.size(), 3u);
  for (const auto& [loop, count] : hits) EXPECT_EQ(count, 3);
  reactor.Stop();
}

}  // namespace
}  // namespace sse::net
