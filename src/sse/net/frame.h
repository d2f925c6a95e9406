#ifndef SSE_NET_FRAME_H_
#define SSE_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <deque>

#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::net {

/// Wire framing: a little-endian u32 length prefix around
/// `Message::Encode()` bytes; `Message::EncodeFrame()` writes both in one
/// pass. Frames above this bound are rejected as protocol errors before
/// any allocation happens.
inline constexpr uint32_t kMaxFrameSize = 1u << 30;
inline constexpr size_t kFrameHeaderSize = 4;

/// Incremental reassembly of length-prefixed frames from an arbitrarily
/// chopped byte stream. This is the ONE framing state machine in the
/// repo: the server's reactor `Connection` feeds it whatever each
/// non-blocking read returns, and `TcpChannel` feeds it blocking-read
/// chunks — both sides therefore agree on torn-prefix, torn-payload and
/// oversize handling by construction.
///
/// Usage: Feed() raw bytes (any split, down to one byte at a time), then
/// Next() until it returns false. Feed rejects a frame whose decoded
/// length exceeds `max_frame` with PROTOCOL_ERROR; after an error the
/// assembler is poisoned and every further Feed fails (the stream cannot
/// be resynchronized).
class FrameAssembler {
 public:
  explicit FrameAssembler(uint32_t max_frame = kMaxFrameSize)
      : max_frame_(max_frame) {}

  /// Appends `len` stream bytes, completing zero or more frames.
  Status Feed(const uint8_t* data, size_t len);
  Status Feed(BytesView data) { return Feed(data.data(), data.size()); }

  /// Pops the next fully reassembled frame payload into `*frame`.
  bool Next(Bytes* frame);

  /// True when the stream stopped inside a frame (torn length prefix or
  /// incomplete payload) — an EOF here is a protocol violation, while an
  /// EOF with mid_frame() == false is a clean close at a frame boundary.
  bool mid_frame() const { return header_filled_ > 0 || reading_payload_; }

  /// Complete frames waiting to be popped.
  size_t ready() const { return ready_.size(); }

  /// Bytes buffered for the frame currently being reassembled.
  size_t partial_bytes() const {
    return header_filled_ + (reading_payload_ ? partial_.size() : 0);
  }

  /// Drops all buffered state (channel reconnects reuse the assembler).
  void Reset();

 private:
  uint32_t max_frame_;
  bool poisoned_ = false;

  uint8_t header_[kFrameHeaderSize] = {};
  size_t header_filled_ = 0;
  bool reading_payload_ = false;
  uint32_t expected_ = 0;
  Bytes partial_;
  std::deque<Bytes> ready_;
};

}  // namespace sse::net

#endif  // SSE_NET_FRAME_H_
