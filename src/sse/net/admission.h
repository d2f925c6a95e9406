#ifndef SSE_NET_ADMISSION_H_
#define SSE_NET_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "sse/obs/slo.h"
#include "sse/util/bytes.h"
#include "sse/util/status.h"

namespace sse::net {

/// Classifies a *raw request frame* without a full decode, by the
/// message-type table (net/message_types.h): strips the header-flag bits
/// from the leading type tag and, for a batch envelope, light-parses just
/// far enough to read the first sub-op's type (MultiCall envelopes are
/// homogeneous rounds, so the first op is representative). Search and
/// control rows give their class. Everything else is kMutation, the
/// conservative (shed-first) direction: mutation rows, reply rows, types
/// with no row and truncated frames.
obs::OpClass ClassifyFrame(BytesView frame);

/// Attaches a machine-readable retry-after hint to a shed/overload status.
/// The hint rides inside the status *message* as a trailing
/// " [retry-after-ms=N]" marker, which survives the kMsgError wire
/// encoding (code + message string) that the channel layer collapses
/// error replies into. Retry layers parse it back out with
/// RetryAfterHintMs and floor their next backoff at the hint.
Status WithRetryAfter(Status status, uint32_t retry_after_ms);

/// Extracts a WithRetryAfter hint; false when `status` carries none.
bool RetryAfterHintMs(const Status& status, uint32_t* retry_after_ms);

/// The verdict of one admission check.
struct AdmissionDecision {
  bool admit = true;
  /// When shedding: how long the client should wait before retrying, so
  /// backoff adapts to the server's view of the overload instead of the
  /// client's guess.
  uint32_t retry_after_ms = 0;
  /// Diagnostic tag for the shed reason ("queue_full", "queue_wait",
  /// "memory"); never nullptr.
  const char* reason = "";
};

/// Server-side admission policy, consulted on the reactor loop thread for
/// every data frame *before* it is queued for dispatch. Implementations
/// must be thread-safe and fast — this sits on the per-frame hot path of
/// every connection.
class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  /// Admit or shed one request. `queue_depth` is the dispatch queue's
  /// occupancy at arrival.
  virtual AdmissionDecision Admit(obs::OpClass op, size_t queue_depth) = 0;

  /// Feedback: the measured queue wait of a request that reached a
  /// worker, so wait-based policies see the latency their admits bought.
  virtual void OnQueueWait(uint64_t /*wait_ns*/) {}
};

/// Default policy: queue-depth and queue-wait-EWMA thresholds with
/// mutation-vs-search priority and an optional memory-pressure input.
///
/// Two watermarks per signal: mutations shed at the lower one, searches
/// only at the higher — so as load climbs the server browns out (updates
/// bounce with retry-after, searches keep serving) before it blacks out.
/// Memory pressure (e.g. the reply cache or posting store near its bound)
/// sheds mutations only; searches allocate no durable state.
class QueueAdmissionController : public AdmissionController {
 public:
  struct Options {
    /// Queue-depth watermark above which searches (and everything else)
    /// are shed. 0 disables depth shedding entirely.
    size_t max_queue_depth = 0;
    /// Lower watermark for mutations; 0 derives max_queue_depth / 2.
    size_t mutation_queue_depth = 0;
    /// EWMA queue-wait watermark (ms) above which searches shed; 0
    /// disables wait shedding.
    double max_queue_wait_ms = 0.0;
    /// Lower wait watermark for mutations; 0 derives half of max.
    double mutation_queue_wait_ms = 0.0;
    /// EWMA smoothing factor per sample, in (0, 1]; higher reacts faster.
    double wait_ewma_alpha = 0.2;
    /// When set and returning true, mutations are shed (memory pressure:
    /// reply cache or posting store at its bound). Checked per mutation.
    std::function<bool()> memory_pressure;
    /// Base retry-after hint; the emitted hint scales with how far past
    /// the watermark the queue is (capped at 8x).
    uint32_t retry_after_ms = 25;
  };

  explicit QueueAdmissionController(Options options);

  AdmissionDecision Admit(obs::OpClass op, size_t queue_depth) override;
  void OnQueueWait(uint64_t wait_ns) override;

  /// Current queue-wait EWMA in ms (for tests and the stats summary).
  double wait_ewma_ms() const;

  uint64_t shed_total() const {
    return shed_total_.load(std::memory_order_relaxed);
  }

 private:
  AdmissionDecision Shed(obs::OpClass op, const char* reason,
                         double overload);

  Options options_;
  std::atomic<uint64_t> wait_ewma_us_{0};  // fixed-point EWMA, microseconds
  std::atomic<uint64_t> shed_total_{0};
};

}  // namespace sse::net

#endif  // SSE_NET_ADMISSION_H_
