#include "sse/net/admission.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sse/net/message.h"
#include "sse/util/serde.h"

namespace sse::net {

namespace {

// Read-only request types per docs/PROTOCOL.md §2/§3/§8/§9. net/ sits
// below the core scheme and baseline headers that name these constants, so
// the values are spelled numerically here; the protocol doc is the one
// normative source both layers encode.
bool IsSearchType(uint16_t type) {
  switch (type) {
    case 0x0101:  // Scheme1.NonceRequest (update round 1: reads state)
    case 0x0105:  // Scheme1.SearchRequest
    case 0x0107:  // Scheme1.SearchFinish
    case 0x0203:  // Scheme2.SearchRequest
    case 0x0205:  // Scheme2.FetchAllRequest
    case 0x0303:  // Swp.Search
    case 0x030d:  // Goh.Search
    case 0x0317:  // Cgko.Search
    case 0x0403:  // Scheme3.SearchRequest
    case 0x0405:  // Scheme3.ProbeRequest
      return true;
    default:
      return false;
  }
}

bool IsControlType(uint16_t type) {
  return type == kMsgStats || type == kMsgReplAppend ||
         type == kMsgReplAck || type == kMsgReplSnapshot ||
         type == kMsgReplPromote;
}

OpClass ClassifyType(uint16_t type) {
  if (IsControlType(type)) return OpClass::kControl;
  if (IsSearchType(type)) return OpClass::kSearch;
  // Mutations and anything unknown: the conservative class (shed first).
  return OpClass::kMutation;
}

constexpr char kRetryAfterPrefix[] = " [retry-after-ms=";

}  // namespace

OpClass ClassifyFrame(BytesView frame) {
  BufferReader r(frame);
  auto tag = r.GetU16();
  if (!tag.ok()) return OpClass::kMutation;
  const uint16_t flags = *tag;
  const uint16_t type = static_cast<uint16_t>(
      flags & ~(kMsgFlagSession | kMsgFlagTrace | kMsgFlagDeadline));
  if (type != kMsgBatch) return ClassifyType(type);
  // Batch envelope: skip the length field and any optional headers, then
  // light-parse to the first sub-op's type tag.
  if (!r.GetU32().ok()) return OpClass::kMutation;
  if ((flags & kMsgFlagSession) != 0 &&
      !r.GetRaw(Message::kSessionHeaderSize).ok()) {
    return OpClass::kMutation;
  }
  if ((flags & kMsgFlagTrace) != 0 &&
      !r.GetRaw(Message::kTraceHeaderSize).ok()) {
    return OpClass::kMutation;
  }
  if ((flags & kMsgFlagDeadline) != 0 &&
      !r.GetRaw(Message::kDeadlineHeaderSize).ok()) {
    return OpClass::kMutation;
  }
  if (!r.GetVarint().ok()) return OpClass::kMutation;  // op count
  if (!r.GetVarint().ok()) return OpClass::kMutation;  // first op seq
  auto op_type = r.GetU16();
  if (!op_type.ok()) return OpClass::kMutation;
  // MultiCall rounds are homogeneous (a Store round or a MultiSearch
  // round), so the first sub-op stands for the envelope.
  return ClassifyType(*op_type);
}

Status WithRetryAfter(Status status, uint32_t retry_after_ms) {
  if (status.ok()) return status;
  char hint[48];
  std::snprintf(hint, sizeof(hint), "%s%u]", kRetryAfterPrefix,
                retry_after_ms);
  return Status(status.code(), status.message() + hint);
}

bool RetryAfterHintMs(const Status& status, uint32_t* retry_after_ms) {
  const std::string& text = status.message();
  const size_t pos = text.rfind(kRetryAfterPrefix);
  if (pos == std::string::npos) return false;
  const char* digits = text.c_str() + pos + sizeof(kRetryAfterPrefix) - 1;
  char* end = nullptr;
  const unsigned long value = std::strtoul(digits, &end, 10);
  if (end == digits || end == nullptr || *end != ']') return false;
  *retry_after_ms = static_cast<uint32_t>(
      std::min<unsigned long>(value, 0xfffffffful));
  return true;
}

QueueAdmissionController::QueueAdmissionController(Options options)
    : options_(options) {
  if (options_.mutation_queue_depth == 0 && options_.max_queue_depth > 0) {
    options_.mutation_queue_depth =
        std::max<size_t>(1, options_.max_queue_depth / 2);
  }
  if (options_.mutation_queue_wait_ms <= 0.0 &&
      options_.max_queue_wait_ms > 0.0) {
    options_.mutation_queue_wait_ms = options_.max_queue_wait_ms / 2.0;
  }
  if (options_.wait_ewma_alpha <= 0.0 || options_.wait_ewma_alpha > 1.0) {
    options_.wait_ewma_alpha = 0.2;
  }
  if (options_.retry_after_ms == 0) options_.retry_after_ms = 25;
}

double QueueAdmissionController::wait_ewma_ms() const {
  return static_cast<double>(wait_ewma_us_.load(std::memory_order_relaxed)) /
         1000.0;
}

void QueueAdmissionController::OnQueueWait(uint64_t wait_ns) {
  // Lossy EWMA update: a racing sample may be dropped, which is fine for
  // a shedding heuristic — the signal converges either way.
  const double sample_us = static_cast<double>(wait_ns) / 1000.0;
  const double old_us =
      static_cast<double>(wait_ewma_us_.load(std::memory_order_relaxed));
  const double next_us =
      old_us + options_.wait_ewma_alpha * (sample_us - old_us);
  wait_ewma_us_.store(next_us <= 0.0 ? 0 : static_cast<uint64_t>(next_us),
                      std::memory_order_relaxed);
}

AdmissionDecision QueueAdmissionController::Shed(OpClass op,
                                                 const char* reason,
                                                 double overload) {
  (void)op;
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  AdmissionDecision d;
  d.admit = false;
  d.reason = reason;
  // Scale the hint with the overload factor so deep saturation pushes
  // clients further out; capped so hints stay actionable.
  const double scale = std::clamp(overload, 1.0, 8.0);
  d.retry_after_ms =
      static_cast<uint32_t>(static_cast<double>(options_.retry_after_ms) * scale);
  return d;
}

AdmissionDecision QueueAdmissionController::Admit(OpClass op,
                                                  size_t queue_depth) {
  if (op == OpClass::kControl) return AdmissionDecision{};
  if (options_.max_queue_depth > 0) {
    const size_t limit = op == OpClass::kMutation
                             ? options_.mutation_queue_depth
                             : options_.max_queue_depth;
    if (queue_depth >= limit) {
      return Shed(op, "queue_full",
                  static_cast<double>(queue_depth) /
                      static_cast<double>(limit));
    }
  }
  if (options_.max_queue_wait_ms > 0.0) {
    const double wait_ms = wait_ewma_ms();
    const double limit = op == OpClass::kMutation
                             ? options_.mutation_queue_wait_ms
                             : options_.max_queue_wait_ms;
    if (wait_ms >= limit) return Shed(op, "queue_wait", wait_ms / limit);
  }
  if (op == OpClass::kMutation && options_.memory_pressure &&
      options_.memory_pressure()) {
    return Shed(op, "memory", 2.0);
  }
  return AdmissionDecision{};
}

}  // namespace sse::net
