#include "sse/util/serde.h"

#include <algorithm>

namespace sse {

void BufferWriter::PutU8(uint8_t v) { buf_.push_back(v); }

void BufferWriter::PutU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void BufferWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BufferWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BufferWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void BufferWriter::PutRaw(BytesView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void BufferWriter::PutBytes(BytesView data) {
  PutVarint(data.size());
  PutRaw(data);
}

void BufferWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  buf_.insert(buf_.end(), reinterpret_cast<const uint8_t*>(s.data()),
              reinterpret_cast<const uint8_t*>(s.data()) + s.size());
}

Status BufferReader::Need(size_t n) const {
  if (remaining() < n) {
    return Status::InvalidArgument("truncated input: need " + std::to_string(n) +
                                   " bytes, have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Result<uint8_t> BufferReader::GetU8() {
  SSE_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> BufferReader::GetU16() {
  SSE_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> BufferReader::GetU32() {
  SSE_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> BufferReader::GetU64() {
  SSE_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<uint64_t> BufferReader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    SSE_RETURN_IF_ERROR(Need(1));
    const uint8_t byte = data_[pos_++];
    if (shift == 63 && (byte & 0x7f) > 1) {
      return Status::Corruption("varint overflows 64 bits");
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) return Status::Corruption("varint too long");
  }
}

Result<Bytes> BufferReader::GetRaw(size_t n) {
  SSE_RETURN_IF_ERROR(Need(n));
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Status BufferReader::GetRawInto(std::span<uint8_t> out) {
  SSE_RETURN_IF_ERROR(Need(out.size()));
  std::copy_n(data_.begin() + pos_, out.size(), out.begin());
  pos_ += out.size();
  return Status::OK();
}

Result<Bytes> BufferReader::GetBytes(size_t max_len) {
  uint64_t len = 0;
  SSE_ASSIGN_OR_RETURN(len, GetVarint());
  if (len > max_len) {
    return Status::Corruption("length prefix " + std::to_string(len) +
                              " exceeds limit " + std::to_string(max_len));
  }
  if (len > remaining()) {
    return Status::InvalidArgument("length prefix exceeds remaining input");
  }
  return GetRaw(static_cast<size_t>(len));
}

Result<std::string> BufferReader::GetString(size_t max_len) {
  Bytes raw;
  SSE_ASSIGN_OR_RETURN(raw, GetBytes(max_len));
  return BytesToString(raw);
}

Result<bool> BufferReader::GetBool() {
  uint8_t v = 0;
  SSE_ASSIGN_OR_RETURN(v, GetU8());
  if (v > 1) return Status::Corruption("bool byte not 0/1");
  return v == 1;
}

Status BufferReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message: " +
                                   std::to_string(remaining()));
  }
  return Status::OK();
}

}  // namespace sse
