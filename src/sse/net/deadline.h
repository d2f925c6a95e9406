#ifndef SSE_NET_DEADLINE_H_
#define SSE_NET_DEADLINE_H_

#include <cstdint>

#include "sse/net/message.h"

namespace sse::net {

/// Server-side view of a caller's remaining time budget. Carried on the
/// wire as a *relative* remaining-milliseconds header (net::Message
/// has_deadline/deadline_ms, behind kMsgFlagDeadline) and in memory via a
/// thread-local "current deadline" so handler layers — dispatch, engine
/// fan-out, durable commit — can ask "is this work already pointless?"
/// without threading a parameter through every signature.
///
/// The absolute expiry is anchored to the local steady clock at the
/// moment the frame is *observed* (arrival or decode), never to any
/// remote clock, so skew between endpoints cannot create false expiry.
/// A default-constructed Deadline is "none": Expired() is always false
/// and RemainingMs() is effectively unbounded.
class Deadline {
 public:
  Deadline() = default;

  /// A deadline expiring `remaining_ms` after `anchor_ns` (steady clock).
  static Deadline FromRemainingMs(uint32_t remaining_ms, uint64_t anchor_ns);

  /// The deadline carried by `msg`, anchored at `anchor_ns` — typically
  /// the frame's arrival timestamp, so queue wait counts against the
  /// budget. None when the message carries no deadline header.
  static Deadline FromMessage(const Message& msg, uint64_t anchor_ns);

  /// Local steady-clock now, in nanoseconds (the anchor currency).
  static uint64_t NowNs();

  bool has_deadline() const { return expires_ns_ != 0; }
  uint64_t expires_ns() const { return expires_ns_; }

  /// True once the budget is spent. Always false for "none".
  bool Expired() const { return Expired(NowNs()); }
  bool Expired(uint64_t now_ns) const {
    return expires_ns_ != 0 && now_ns >= expires_ns_;
  }

  /// Remaining budget in ms (0 when expired); UINT32_MAX for "none".
  uint32_t RemainingMs() const { return RemainingMs(NowNs()); }
  uint32_t RemainingMs(uint64_t now_ns) const;

  /// Re-stamps `msg`'s deadline header with this deadline's remaining
  /// budget (strips the header when "none"). Safe on session-stamped
  /// messages: the header sits outside the payload CRC.
  void StampMessage(Message* msg) const;

 private:
  explicit Deadline(uint64_t expires_ns) : expires_ns_(expires_ns) {}

  uint64_t expires_ns_ = 0;  // 0 = no deadline
};

/// The calling thread's current deadline ("none" when no ScopedDeadline
/// is open on this thread).
Deadline CurrentDeadline();

/// RAII propagation: makes `deadline` the thread's current deadline for
/// its scope and restores the previous one on destruction — the same
/// shape as obs::ScopedSpan, and like it safe to nest (the innermost
/// scope wins). A hop to another thread captures CurrentDeadline() by
/// value and opens a new scope there, exactly like trace contexts.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(const Deadline& deadline);
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  Deadline saved_;
};

/// The standard verdict for work found expired: retryable — the caller's
/// retry layer decides whether *its* budget still allows another attempt.
Status DeadlineExceededStatus(const char* where);

}  // namespace sse::net

#endif  // SSE_NET_DEADLINE_H_
