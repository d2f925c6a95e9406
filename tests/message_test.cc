#include "sse/net/message.h"

#include <gtest/gtest.h>

#include "sse/core/scheme1_messages.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/scheme3_messages.h"
#include "test_util.h"

namespace sse::net {
namespace {

TEST(MessageTest, EncodeDecodeRoundTrip) {
  Message msg{0x0105, Bytes{1, 2, 3, 4}};
  Bytes wire = msg.Encode();
  EXPECT_EQ(wire.size(), msg.WireSize());
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, msg.type);
  EXPECT_EQ(decoded->payload, msg.payload);
}

TEST(MessageTest, EmptyPayload) {
  Message msg{7, {}};
  auto decoded = Message::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(MessageTest, DecodeRejectsLengthMismatch) {
  Message msg{1, Bytes{1, 2, 3}};
  Bytes wire = msg.Encode();
  wire.push_back(0);  // trailing garbage
  EXPECT_FALSE(Message::Decode(wire).ok());
  wire.pop_back();
  wire.pop_back();  // truncated payload
  EXPECT_FALSE(Message::Decode(wire).ok());
}

TEST(MessageTest, DecodeRejectsTinyInputs) {
  EXPECT_FALSE(Message::Decode(Bytes{}).ok());
  EXPECT_FALSE(Message::Decode(Bytes{1}).ok());
  EXPECT_FALSE(Message::Decode(Bytes{1, 2, 3}).ok());
}

TEST(MessageTest, ErrorMessageRoundTrip) {
  Message err = MakeErrorMessage(Status::NotFound("token missing"));
  EXPECT_EQ(err.type, kMsgError);
  Status s = DecodeErrorMessage(err);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "token missing");
}

TEST(MessageTest, NonErrorDecodesToOk) {
  Message msg{kMsgStats, {}};
  EXPECT_TRUE(DecodeErrorMessage(msg).ok());
}

TEST(MessageTest, SessionStampRoundTrips) {
  Message msg{0x0203, Bytes{9, 8, 7}};
  msg.StampSession(0xabcdef0123456789u, 42);
  Bytes wire = msg.Encode();
  EXPECT_EQ(wire.size(), msg.WireSize());
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->has_session);
  EXPECT_EQ(decoded->type, 0x0203);  // flag stripped
  EXPECT_EQ(decoded->client_id, 0xabcdef0123456789u);
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->payload, msg.payload);
}

TEST(MessageTest, UnstampedEncodingIsByteIdenticalToLegacy) {
  // Backward compatibility: a message without a session header must encode
  // exactly as before the header existed (type ‖ u32 len ‖ payload, LE).
  Message msg{0x0105, Bytes{1, 2, 3, 4}};
  const Bytes wire = msg.Encode();
  const Bytes expected = {0x05, 0x01, 0x04, 0x00, 0x00, 0x00, 1, 2, 3, 4};
  EXPECT_EQ(wire, expected);
}

TEST(MessageTest, EncodeFrameIsLengthPrefixThenEncode) {
  Message plain{0x0105, Bytes{1, 2, 3, 4}};
  const Bytes expected = {0x0a, 0x00, 0x00, 0x00, 0x05, 0x01, 0x04,
                          0x00, 0x00, 0x00, 1,    2,    3,    4};
  EXPECT_EQ(plain.EncodeFrame(), expected);
  // Every header combination frames exactly the bytes Encode() produces.
  for (int headers = 0; headers < 8; ++headers) {
    Message msg{0x0203, Bytes(300, 0x5a)};
    if ((headers & 1) != 0) msg.StampSession(0x0102030405060708u, 77);
    msg.has_trace = (headers & 2) != 0;
    msg.trace_id = 0x1111;
    msg.trace_parent = 0x2222;
    msg.trace_flags = kTraceFlagSampled;
    msg.has_deadline = (headers & 4) != 0;
    msg.deadline_ms = 1234;
    EXPECT_EQ(msg.EncodeFrame(), sse::testing::FrameBytes(msg.Encode()))
        << "headers " << headers;
  }
}

TEST(MessageTest, SessionWireSizeAddsExactlyTheHeader) {
  Message plain{0x0105, Bytes{1, 2, 3, 4}};
  Message stamped = plain;
  stamped.StampSession(1, 2);
  EXPECT_EQ(stamped.WireSize(),
            plain.WireSize() + Message::kSessionHeaderSize);
  EXPECT_EQ(stamped.Encode().size(), stamped.WireSize());
}

TEST(MessageTest, DecodeRejectsCorruptedStampedPayload) {
  Message msg{0x0103, Bytes{1, 2, 3, 4, 5}};
  msg.StampSession(7, 7);
  Bytes wire = msg.Encode();
  wire.back() ^= 0x40;  // flip a payload bit
  auto decoded = Message::Decode(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(MessageTest, CorruptionOfUnstampedPayloadIsUndetectedHere) {
  // Without the session header there is no checksum; garbage reaches the
  // protocol parsers (which reject it at their own layer). Pins why the
  // retry layer always stamps.
  Message msg{0x0103, Bytes{1, 2, 3, 4, 5}};
  Bytes wire = msg.Encode();
  wire.back() ^= 0x40;
  EXPECT_TRUE(Message::Decode(wire).ok());
}

TEST(MessageTest, EchoSessionCopiesStampAndRecomputesCrc) {
  Message request{0x0101, Bytes{1}};
  request.StampSession(11, 22);
  Message reply{0x0102, Bytes{4, 5, 6}};
  reply.EchoSession(request);
  ASSERT_TRUE(reply.has_session);
  EXPECT_EQ(reply.client_id, 11u);
  EXPECT_EQ(reply.seq, 22u);
  // The echoed CRC covers the REPLY payload, so the round trip survives.
  auto decoded = Message::Decode(reply.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->payload, reply.payload);

  Message unstamped{0x0101, Bytes{1}};
  Message reply2{0x0102, Bytes{}};
  reply2.EchoSession(unstamped);
  EXPECT_FALSE(reply2.has_session);
}

TEST(MessageTest, SessionHeaderTruncationRejected) {
  Message msg{0x0103, Bytes{}};
  msg.StampSession(1, 1);
  Bytes wire = msg.Encode();
  // Shrink the body below the header size (and fix the length field).
  wire.resize(2 + 4 + 10);
  wire[2] = 10;
  wire[3] = wire[4] = wire[5] = 0;
  EXPECT_FALSE(Message::Decode(wire).ok());
}

TEST(MessageTest, TypeNames) {
  EXPECT_EQ(MessageTypeName(kMsgError), "Error");
  EXPECT_EQ(MessageTypeName(core::kMsgS1SearchRequest).substr(0, 8),
            "Scheme1.");
  EXPECT_EQ(MessageTypeName(core::kMsgS2UpdateRequest).substr(0, 8),
            "Scheme2.");
  EXPECT_EQ(MessageTypeName(0x0301).substr(0, 9), "Baseline.");
  EXPECT_EQ(MessageTypeName(core::kMsgS3SearchRequest),
            "Scheme3.SearchRequest");
  EXPECT_EQ(MessageTypeName(core::kMsgS3ProbeRequest),
            "Scheme3.ProbeRequest");
  EXPECT_EQ(MessageTypeName(kMsgRangeScheme3 + 6), "Scheme3.6");
  EXPECT_EQ(MessageTypeName(0x7001).substr(0, 8), "Unknown.");
}

}  // namespace
}  // namespace sse::net
