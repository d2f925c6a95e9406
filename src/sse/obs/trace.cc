#include "sse/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "sse/util/logging.h"

namespace sse::obs {

namespace {

thread_local TraceContext tl_current;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 over a process-wide counter: unique, well-mixed 64-bit ids
/// without coordination (ids need to be unique, not unpredictable).
uint64_t NextId() {
  static std::atomic<uint64_t> counter{0};
  uint64_t z = counter.fetch_add(1, std::memory_order_relaxed) +
               0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return z != 0 ? z : 1;  // 0 means "no trace"
}

uint64_t CurrentTraceIdForLogs() { return tl_current.trace_id; }

}  // namespace

// ------------------------------------------------------------- collector --

/// One span slot, written only by the owning thread, read by any. A
/// per-slot seqlock makes torn reads detectable: seq is odd while a write
/// is in progress, and a reader accepts a slot only when it observes the
/// same even seq before and after reading the fields. It is the fence-free
/// form: every field is an atomic stored with release and loaded with
/// acquire. A reader that loads a field of a write in progress therefore
/// also sees that write's odd seq, and its closing seq load cannot move
/// above its field loads. No standalone fence is needed, which
/// ThreadSanitizer could not model; on x86 both orders are plain moves.
struct SpanCollector::Slot {
  std::atomic<uint64_t> seq{0};  // 0 = never written
  std::atomic<uint64_t> epoch{0};
  std::atomic<uint64_t> name{0};  // uintptr of a string literal
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> span_id{0};
  std::atomic<uint64_t> parent_id{0};
  std::atomic<uint64_t> start_ns{0};
  std::atomic<uint64_t> end_ns{0};
  std::atomic<uint64_t> tid{0};
  std::atomic<uint64_t> note_count{0};
  std::array<std::atomic<uint64_t>, SpanRecord::kMaxNotes> note_keys{};
  std::array<std::atomic<uint64_t>, SpanRecord::kMaxNotes> note_values{};
};

struct SpanCollector::ThreadBuffer {
  std::array<Slot, kRingSlots> slots;
  uint64_t head = 0;  // owner-thread only
  uint32_t tid = 0;
};

SpanCollector::SpanCollector() {
  // Let SSE_LOG lines carry the active trace id (see util/logging.h).
  SetLogTraceIdProvider(&CurrentTraceIdForLogs);
}

SpanCollector& SpanCollector::Global() {
  // Leaked on purpose: recording threads may outlive any static
  // destruction order we could promise.
  static SpanCollector* collector = new SpanCollector();
  return *collector;
}

SpanCollector::ThreadBuffer& SpanCollector::LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->tid = static_cast<uint32_t>(buffers_.size() + 1);
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanCollector::Record(const SpanRecord& record) {
  ThreadBuffer& buffer = LocalBuffer();
  Slot& slot = buffer.slots[buffer.head % kRingSlots];
  buffer.head += 1;
  recorded_.fetch_add(1, std::memory_order_relaxed);

  const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);  // odd: in progress
  constexpr auto kPublish = std::memory_order_release;
  slot.epoch.store(epoch_.load(std::memory_order_relaxed), kPublish);
  slot.name.store(reinterpret_cast<uintptr_t>(record.name), kPublish);
  slot.trace_id.store(record.trace_id, kPublish);
  slot.span_id.store(record.span_id, kPublish);
  slot.parent_id.store(record.parent_id, kPublish);
  slot.start_ns.store(record.start_ns, kPublish);
  slot.end_ns.store(record.end_ns, kPublish);
  slot.tid.store(buffer.tid, kPublish);
  const uint64_t notes =
      std::min<uint64_t>(record.note_count, SpanRecord::kMaxNotes);
  slot.note_count.store(notes, kPublish);
  for (uint64_t i = 0; i < notes; ++i) {
    slot.note_keys[i].store(reinterpret_cast<uintptr_t>(record.note_keys[i]),
                            kPublish);
    slot.note_values[i].store(record.note_values[i], kPublish);
  }
  slot.seq.store(seq + 2, std::memory_order_release);  // even: stable
}

void SpanCollector::CollectInto(std::vector<SpanRecord>* out,
                                uint64_t trace_filter, bool filter) const {
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    for (const Slot& slot : buffer->slots) {
      const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or mid-write
      constexpr auto kRead = std::memory_order_acquire;
      SpanRecord r;
      if (slot.epoch.load(kRead) != epoch) continue;
      r.name = reinterpret_cast<const char*>(
          static_cast<uintptr_t>(slot.name.load(kRead)));
      r.trace_id = slot.trace_id.load(kRead);
      r.span_id = slot.span_id.load(kRead);
      r.parent_id = slot.parent_id.load(kRead);
      r.start_ns = slot.start_ns.load(kRead);
      r.end_ns = slot.end_ns.load(kRead);
      r.tid = static_cast<uint32_t>(slot.tid.load(kRead));
      r.note_count = static_cast<uint32_t>(std::min<uint64_t>(
          slot.note_count.load(kRead), SpanRecord::kMaxNotes));
      for (uint32_t i = 0; i < r.note_count; ++i) {
        r.note_keys[i] = reinterpret_cast<const char*>(
            static_cast<uintptr_t>(slot.note_keys[i].load(kRead)));
        r.note_values[i] = slot.note_values[i].load(kRead);
      }
      const uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
      if (s1 != s2) continue;  // overwritten while reading: drop
      if (filter && r.trace_id != trace_filter) continue;
      out->push_back(r);
    }
  }
  std::sort(out->begin(), out->end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
}

std::vector<SpanRecord> SpanCollector::Collect() const {
  std::vector<SpanRecord> out;
  CollectInto(&out, 0, /*filter=*/false);
  return out;
}

std::vector<SpanRecord> SpanCollector::CollectTrace(uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  CollectInto(&out, trace_id, /*filter=*/true);
  return out;
}

void SpanCollector::Clear() {
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

std::string SpanCollector::ToChromeTraceJson(
    const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ",";
    first = false;
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"cat\":\"sse\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"trace_id\":\"%" PRIx64
        "\",\"span_id\":\"%" PRIx64 "\",\"parent_id\":\"%" PRIx64 "\"",
        span.name, static_cast<double>(span.start_ns) / 1e3,
        static_cast<double>(span.duration_ns()) / 1e3, span.tid, span.trace_id,
        span.span_id, span.parent_id);
    out += buf;
    for (uint32_t i = 0; i < span.note_count; ++i) {
      std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", span.note_keys[i],
                    static_cast<unsigned long long>(span.note_values[i]));
      out += buf;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

// ----------------------------------------------------------------- spans --

TraceContext CurrentContext() { return tl_current; }

TraceContext StartTrace() {
  TraceContext ctx;
  ctx.trace_id = NextId();
  ctx.span_id = 0;  // children of the root context parent to 0
  ctx.sampled = true;
  return ctx;
}

ScopedSpan::ScopedSpan(const char* name, const TraceContext& parent) {
  if (!parent.active()) return;
  active_ = true;
  context_.trace_id = parent.trace_id;
  context_.span_id = NextId();
  context_.sampled = true;
  record_.name = name;
  record_.trace_id = parent.trace_id;
  record_.span_id = context_.span_id;
  record_.parent_id = parent.span_id;
  record_.start_ns = NowNanos();
  saved_ = tl_current;
  tl_current = context_;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  tl_current = saved_;
  record_.end_ns = NowNanos();
  SpanCollector::Global().Record(record_);
}

void ScopedSpan::Annotate(const char* key, uint64_t value) {
  if (!active_ || record_.note_count >= SpanRecord::kMaxNotes) return;
  record_.note_keys[record_.note_count] = key;
  record_.note_values[record_.note_count] = value;
  record_.note_count += 1;
}

// ------------------------------------------------------------------ wire --

void StampMessage(net::Message* msg, const TraceContext& ctx) {
  if (!ctx.active()) return;
  msg->has_trace = true;
  msg->trace_id = ctx.trace_id;
  msg->trace_parent = ctx.span_id;
  msg->trace_flags = net::kTraceFlagSampled;
}

TraceContext ContextOf(const net::Message& msg) {
  TraceContext ctx;
  if (!msg.has_trace) return ctx;
  ctx.trace_id = msg.trace_id;
  ctx.span_id = msg.trace_parent;
  ctx.sampled = (msg.trace_flags & net::kTraceFlagSampled) != 0;
  return ctx;
}

TraceContext ParentFor(const net::Message& msg) {
  const TraceContext current = CurrentContext();
  if (current.active()) return current;
  return ContextOf(msg);
}

}  // namespace sse::obs
