#ifndef SSE_REPL_SENDER_H_
#define SSE_REPL_SENDER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sse/core/durable_server.h"
#include "sse/net/tcp.h"
#include "sse/obs/histogram.h"
#include "sse/obs/metrics_registry.h"
#include "sse/repl/messages.h"
#include "sse/storage/env.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::repl {

/// Primary-side replication pump: plugs into DurableServer as its
/// WalShipper and streams every journaled record to a set of followers
/// over the ordinary frame protocol (kMsgReplAppend / kMsgReplAck).
///
/// One shipping thread per follower. Each thread keeps its own
/// TcpChannel, learns the follower's durable cursor from acks (an empty
/// append doubles as the health probe / cursor query), and serves records
/// from a bounded in-memory tail buffer. A follower whose cursor has
/// fallen off the buffer is caught up from the primary's on-disk WAL
/// segments; one that has fallen behind the compaction horizon gets the
/// newest checkpoint via kMsgReplSnapshot and resumes from its cut.
///
/// Ack modes:
///  * kAsync — OnAppend enqueues and returns; replication trails the
///    primary's fsync by whatever the network allows.
///  * kWaitOne — after its local fsync the primary blocks (bounded by
///    `ack_timeout_ms`) until at least one follower has acked the record
///    durable. On timeout the write is acked to the client anyway and
///    `sse_repl_ack_timeouts_total` is bumped: a dead follower set
///    degrades to async rather than wedging the primary.
///
/// An ack carrying an epoch above the sender's own means a follower was
/// promoted while we were still alive (we are a deposed primary): the
/// sender fences itself — stops shipping — and exposes `fenced()` so the
/// owning node can step down.
class ReplSender : public core::WalShipper {
 public:
  enum class AckMode { kAsync, kWaitOne };

  struct Endpoint {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
  };

  struct Options {
    AckMode ack_mode = AckMode::kAsync;
    /// Bound on the kWaitOne block after local fsync.
    uint64_t ack_timeout_ms = 2000;
    /// Idle heartbeat: an empty append per follower at this cadence.
    uint64_t probe_interval_ms = 500;
    uint64_t connect_timeout_ms = 1000;
    uint64_t io_timeout_ms = 5000;
    /// In-memory tail of recent records; followers behind it fall back to
    /// reading the primary's WAL segments from disk.
    size_t live_buffer_records = 4096;
    uint64_t initial_backoff_ms = 50;
    uint64_t max_backoff_ms = 2000;
    /// For disk catch-up reads of the primary's own WAL directory.
    storage::Env* env = storage::Env::Default();
    uint64_t wal_segment_bytes = 8ull << 20;
  };

  /// `dir` is the primary's DurableServer directory (read-only here: disk
  /// catch-up replays its segments, snapshot ship reads its checkpoints).
  ReplSender(std::string dir, std::vector<Endpoint> followers, uint64_t epoch);
  ReplSender(std::string dir, std::vector<Endpoint> followers, uint64_t epoch,
             Options options);
  ~ReplSender() override;

  ReplSender(const ReplSender&) = delete;
  ReplSender& operator=(const ReplSender&) = delete;

  /// Spawns the shipping threads. `next_seq` is the primary WAL's
  /// next-append sequence at the time of the call (records below it are
  /// on disk, not in the live buffer). Call once, after DurableServer
  /// recovery and before serving traffic.
  void Start(uint64_t next_seq);

  /// Stops and joins all shipping threads. Safe to call twice; the
  /// destructor calls it.
  void Stop();

  // --- core::WalShipper ---
  /// Called by DurableServer under its WAL mutex: enqueue only.
  void OnAppend(uint64_t wal_seq, BytesView record) override;
  /// Called after the primary's local fsync, outside the WAL mutex.
  void WaitReplicated(uint64_t wal_seq) override;

  struct FollowerStatus {
    std::string endpoint;  // "host:port"
    bool connected = false;
    uint64_t next_seq = 1;  // durable cursor learned from its last ack
  };
  std::vector<FollowerStatus> followers() const;

  /// Highest sequence known durable on at least one follower.
  uint64_t max_acked_seq() const;
  /// Highest sequence appended to the primary's log (0 = none yet).
  uint64_t log_end() const;
  uint64_t ack_timeouts() const;
  uint64_t snapshots_shipped() const;
  /// True once an ack reported an epoch above ours: a follower was
  /// promoted and this (former) primary must stop accepting mutations.
  bool fenced() const;
  uint64_t epoch() const { return epoch_; }

 private:
  struct Follower {
    Endpoint endpoint;
    std::thread thread;
    // Guarded by mutex_:
    bool connected = false;
    uint64_t next_seq = 1;
  };

  void FollowerLoop(Follower* f);
  /// Sends `msg`, times it, decodes the ReplAck and folds its cursor /
  /// epoch into `f` (may set fenced_). Transport or decode failure means
  /// the caller should drop the channel and redial.
  Result<ReplAck> Exchange(net::TcpChannel* channel, Follower* f,
                           const net::Message& msg);
  void ApplyAckLocked(Follower* f, const ReplAck& ack);
  /// Collects up to one ReplAppend frame's records starting at `from`
  /// from the primary's on-disk segments. Sets `*need_snapshot` when
  /// compaction has removed `from` (the oldest segment starts above it).
  Status CollectFromDisk(uint64_t from, std::vector<Bytes>* records,
                         bool* need_snapshot);
  /// Ships the newest on-disk checkpoint; on an accepting ack the
  /// follower resumes from its cut.
  Status ShipSnapshot(net::TcpChannel* channel, Follower* f);
  bool SleepBackoff(uint64_t* backoff_ms);

  const std::string dir_;
  const uint64_t epoch_;
  const Options options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // new records or stop
  std::condition_variable ack_cv_;   // max_acked_ advanced or stop
  std::deque<std::pair<uint64_t, Bytes>> buffer_;  // contiguous live tail
  uint64_t log_end_ = 0;
  uint64_t max_acked_ = 0;
  uint64_t ack_timeouts_ = 0;
  uint64_t snapshots_shipped_ = 0;
  bool fenced_ = false;
  bool started_ = false;
  bool stop_ = false;

  std::vector<std::unique_ptr<Follower>> followers_;
  obs::LatencyHistogram ship_hist_;
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

}  // namespace sse::repl

#endif  // SSE_REPL_SENDER_H_
