#ifndef SSE_OBS_TRACE_H_
#define SSE_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sse/net/message.h"

namespace sse::obs {

/// Identity of one distributed request plus the position inside its span
/// tree. Carried client → retry layer → transport → server → engine shards
/// → WAL, in memory via a thread-local "current context" and on the wire
/// via a trace header behind net::kMsgFlagTrace. A default-constructed
/// context is invalid: spans opened under it cost one thread-local read and
/// record nothing, which is what keeps the no-trace hot path free.
struct TraceContext {
  uint64_t trace_id = 0;  // one per end-to-end request; 0 = no trace
  uint64_t span_id = 0;   // the span children should parent to (0 = root)
  bool sampled = false;   // only sampled traces record span payloads

  bool active() const { return trace_id != 0 && sampled; }
};

/// One finished span, as read back out of the collector.
struct SpanRecord {
  static constexpr size_t kMaxNotes = 4;

  const char* name = "";  // string literal supplied at ScopedSpan creation
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;  // steady-clock, comparable within one process
  uint64_t end_ns = 0;
  uint32_t tid = 0;  // collector-assigned thread number
  uint32_t note_count = 0;
  std::array<const char*, kMaxNotes> note_keys{};
  std::array<uint64_t, kMaxNotes> note_values{};

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide span sink: one fixed-size ring buffer per recording thread,
/// written lock-free by its owning thread (a fence-free seqlock per slot:
/// all fields atomic, stored with release and loaded with acquire inside
/// the slot sequence's bracket) and read by Collect() from any thread
/// without stopping writers. Old spans are overwritten once a thread's
/// ring wraps — the collector is a flight recorder, not a durable log.
class SpanCollector {
 public:
  static constexpr size_t kRingSlots = 1024;  // per recording thread

  static SpanCollector& Global();

  /// Records one finished span into the calling thread's ring. Callers go
  /// through ScopedSpan; direct use is for tests.
  void Record(const SpanRecord& record);

  /// Every intact span currently in any ring, oldest first. Spans being
  /// overwritten mid-read are skipped (detected via the slot seqlock).
  std::vector<SpanRecord> Collect() const;

  /// Spans of one trace only, oldest first.
  std::vector<SpanRecord> CollectTrace(uint64_t trace_id) const;

  /// Logically empties the collector (old spans stop being visible to
  /// Collect; rings are not touched, so concurrent writers are unaffected).
  void Clear();

  /// Spans recorded since process start (including overwritten ones).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Renders `spans` as Chrome trace-event JSON ("traceEvents" array of
  /// complete "X" events; load in chrome://tracing or Perfetto).
  static std::string ToChromeTraceJson(const std::vector<SpanRecord>& spans);

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

 private:
  struct Slot;
  struct ThreadBuffer;

  SpanCollector();
  ~SpanCollector() = delete;  // process-lifetime singleton

  ThreadBuffer& LocalBuffer();
  void CollectInto(std::vector<SpanRecord>* out, uint64_t trace_filter,
                   bool filter) const;

  mutable std::mutex mu_;  // guards buffers_ registration, not recording
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<uint64_t> epoch_{1};  // Clear() bumps; stale slots are hidden
  std::atomic<uint64_t> recorded_{0};
};

/// The calling thread's current trace context (invalid when no sampled
/// span is open on this thread).
TraceContext CurrentContext();

/// Mints a fresh sampled root context. Open the first span with
/// `ScopedSpan span("client.call", StartTrace());`.
TraceContext StartTrace();

/// RAII span: opens on construction, records into SpanCollector::Global()
/// on destruction, and makes itself the thread's current context in
/// between so nested spans (and SSE_LOG lines) attach to it. Inactive —
/// a no-op beyond one branch — when the parent context is not sampled.
class ScopedSpan {
 public:
  /// Child of the thread's current context.
  explicit ScopedSpan(const char* name) : ScopedSpan(name, CurrentContext()) {}
  /// Child of an explicit parent — for crossing threads and for
  /// re-rooting at a wire message's trace header.
  ScopedSpan(const char* name, const TraceContext& parent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a (key, value) note; keys must be string literals. Beyond
  /// SpanRecord::kMaxNotes notes are dropped.
  void Annotate(const char* key, uint64_t value);

  bool active() const { return active_; }
  /// This span's own context (what children should parent to).
  const TraceContext& context() const { return context_; }

 private:
  bool active_ = false;
  TraceContext context_;   // trace_id + our span_id
  TraceContext saved_;     // thread-local current to restore
  SpanRecord record_;
};

/// Wire helpers: the trace header travels on net::Message behind
/// net::kMsgFlagTrace (trace_id ‖ sender span id ‖ flags).

/// Stamps `msg` with `ctx` (no-op when ctx is inactive, so unsampled
/// traffic stays byte-identical to pre-trace builds).
void StampMessage(net::Message* msg, const TraceContext& ctx);

/// The context a server-side span should parent to for `msg`: the
/// message's trace header, or an invalid context when unstamped.
TraceContext ContextOf(const net::Message& msg);

/// Effective parent for handler code that may sit behind either an
/// in-process call chain (thread-local current is already set) or a
/// decoded wire message (current is empty, the header has the context).
TraceContext ParentFor(const net::Message& msg);

}  // namespace sse::obs

#endif  // SSE_OBS_TRACE_H_
