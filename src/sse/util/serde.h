#ifndef SSE_UTIL_SERDE_H_
#define SSE_UTIL_SERDE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse {

/// Append-only binary encoder producing the library's canonical wire format:
/// little-endian fixed-width integers, LEB128 varints, and length-prefixed
/// byte strings. Every protocol message, WAL record and snapshot section is
/// encoded with this writer so that byte counts measured by the channel are
/// well-defined.
class BufferWriter {
 public:
  BufferWriter() = default;

  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Unsigned LEB128.
  void PutVarint(uint64_t v);
  /// Raw bytes, no length prefix.
  void PutRaw(BytesView data);
  /// Varint length prefix followed by the bytes.
  void PutBytes(BytesView data);
  /// Varint length prefix followed by the UTF-8 contents.
  void PutString(std::string_view s);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// Pre-sizes the buffer for `n` bytes in all.
  void Reserve(size_t n) { buf_.reserve(n); }

  const Bytes& data() const { return buf_; }
  Bytes TakeData() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Sequential decoder over a byte view. All getters fail with
/// INVALID_ARGUMENT (truncation) or CORRUPTION (malformed varint) instead of
/// reading out of bounds; parsers built on it are safe on adversarial input.
class BufferReader {
 public:
  explicit BufferReader(BytesView data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<uint64_t> GetVarint();
  /// Reads exactly `n` raw bytes.
  Result<Bytes> GetRaw(size_t n);
  /// Reads exactly `out.size()` raw bytes into `out`.
  Status GetRawInto(std::span<uint8_t> out);
  /// Reads a varint length prefix then that many bytes. `max_len` bounds
  /// the accepted length to keep adversarial inputs from provoking huge
  /// allocations.
  Result<Bytes> GetBytes(size_t max_len = kDefaultMaxLen);
  Result<std::string> GetString(size_t max_len = kDefaultMaxLen);
  Result<bool> GetBool();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

  /// Fails unless the entire input has been consumed — protocol messages
  /// must not carry trailing garbage.
  Status ExpectEnd() const;

  static constexpr size_t kDefaultMaxLen = size_t{1} << 30;

 private:
  Status Need(size_t n) const;

  BytesView data_;
  size_t pos_ = 0;
};

}  // namespace sse

#endif  // SSE_UTIL_SERDE_H_
