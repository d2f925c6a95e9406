#include "sse/net/frame.h"

#include <algorithm>
#include <cstring>

namespace sse::net {

Status FrameAssembler::Feed(const uint8_t* data, size_t len) {
  if (poisoned_) {
    return Status::ProtocolError("frame stream previously poisoned");
  }
  size_t pos = 0;
  while (pos < len) {
    if (!reading_payload_) {
      const size_t take =
          std::min(len - pos, kFrameHeaderSize - header_filled_);
      std::memcpy(header_ + header_filled_, data + pos, take);
      header_filled_ += take;
      pos += take;
      if (header_filled_ < kFrameHeaderSize) break;  // torn length prefix
      uint32_t frame_len = 0;
      for (size_t i = 0; i < kFrameHeaderSize; ++i) {
        frame_len |= static_cast<uint32_t>(header_[i]) << (8 * i);
      }
      if (frame_len > max_frame_) {
        poisoned_ = true;
        return Status::ProtocolError("frame length exceeds limit");
      }
      header_filled_ = 0;
      reading_payload_ = true;
      expected_ = frame_len;
      partial_.clear();
      partial_.reserve(frame_len);
    }
    if (reading_payload_) {
      const size_t take =
          std::min(len - pos, static_cast<size_t>(expected_) - partial_.size());
      partial_.insert(partial_.end(), data + pos, data + pos + take);
      pos += take;
      if (partial_.size() == expected_) {
        ready_.push_back(std::move(partial_));
        partial_ = Bytes();
        reading_payload_ = false;
        expected_ = 0;
      }
    }
  }
  return Status::OK();
}

bool FrameAssembler::Next(Bytes* frame) {
  if (ready_.empty()) return false;
  *frame = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

void FrameAssembler::Reset() {
  poisoned_ = false;
  header_filled_ = 0;
  reading_payload_ = false;
  expected_ = 0;
  partial_.clear();
  ready_.clear();
}

}  // namespace sse::net
