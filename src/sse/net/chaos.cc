#include "sse/net/chaos.h"

#include <chrono>
#include <optional>
#include <thread>

namespace sse::net {

ChaosChannel::ChaosChannel(Channel* inner, const ChaosOptions& options)
    : inner_(inner), options_(options), rng_(options.seed) {}

bool ChaosChannel::Roll(double p) {
  if (p <= 0.0) return false;
  return rng_.NextDouble() < p;
}

void ChaosChannel::CorruptPayload(Message& msg) {
  if (msg.payload.empty()) {
    // Nothing to flip in the payload; damage the checksum itself instead,
    // which a receiver detects the same way.
    msg.payload_crc ^= 0xdeadbeef;
    return;
  }
  const size_t index =
      static_cast<size_t>(rng_.Next() % msg.payload.size());
  uint8_t flip = static_cast<uint8_t>(rng_.Next() & 0xff);
  if (flip == 0) flip = 0x01;  // XOR with 0 would be a no-op
  msg.payload[index] ^= flip;
}

void ChaosChannel::Reset() {
  stale_replies_.clear();
  inner_->Reset();
}

Result<Message> ChaosChannel::Call(const Message& request) {
  std::optional<ChaosFault> scheduled;
  if (auto it = scheduled_.find(chaos_stats_.calls); it != scheduled_.end()) {
    scheduled = it->second;
    scheduled_.erase(it);
  }
  // Whether this call suffers `fault`: rolled with probability `p`, or
  // scheduled for it. Rolling first keeps a schedule from shifting the
  // seeded random sequence.
  auto inject = [&](double p, ChaosFault fault) {
    const bool rolled = Roll(p);
    return rolled || scheduled == fault;
  };
  chaos_stats_.calls += 1;
  stats_.rounds += 1;
  stats_.calls_by_type[request.type] += 1;

  if (Roll(options_.p_delay)) {
    chaos_stats_.delays += 1;
    stats_.injected_faults += 1;
    const double ms =
        options_.delay_min_ms +
        rng_.NextDouble() * (options_.delay_max_ms - options_.delay_min_ms);
    if (sleep_fn_) {
      sleep_fn_(ms);
    } else if (ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
  }

  Message outbound = request;
  if (Roll(options_.p_request_corrupt)) {
    chaos_stats_.request_corruptions += 1;
    stats_.injected_faults += 1;
    CorruptPayload(outbound);
  }
  stats_.bytes_sent += outbound.WireSize();
  if (inject(options_.p_request_drop, ChaosFault::kRequestDrop)) {
    chaos_stats_.request_drops += 1;
    stats_.injected_faults += 1;
    return Status::IoError("chaos: request dropped");
  }

  Result<Message> fresh = inner_->Call(outbound);
  if (Roll(options_.p_request_duplicate)) {
    // The doubled request reaches the server as a second identical copy;
    // its reply lands behind ours in the stream.
    chaos_stats_.request_duplicates += 1;
    stats_.injected_faults += 1;
    Result<Message> second = inner_->Call(outbound);
    if (second.ok()) stale_replies_.push_back(std::move(second).value());
  }
  if (!fresh.ok()) return fresh.status();
  stats_.bytes_received += fresh->WireSize();

  if (inject(options_.p_reply_drop, ChaosFault::kReplyDrop)) {
    chaos_stats_.reply_drops += 1;
    stats_.injected_faults += 1;
    return Status::IoError("chaos: reply dropped (server DID process)");
  }
  if (inject(options_.p_reply_duplicate, ChaosFault::kReplyDuplicate)) {
    chaos_stats_.reply_duplicates += 1;
    stats_.injected_faults += 1;
    stale_replies_.push_back(*fresh);
  }

  Message delivered;
  if (!stale_replies_.empty()) {
    // The stream is off by one: the oldest buffered reply answers this
    // call; the genuine reply queues behind it.
    delivered = std::move(stale_replies_.front());
    stale_replies_.pop_front();
    stale_replies_.push_back(std::move(fresh).value());
    chaos_stats_.stale_served += 1;
  } else {
    delivered = std::move(fresh).value();
  }

  if (Roll(options_.p_reply_corrupt)) {
    chaos_stats_.reply_corruptions += 1;
    stats_.injected_faults += 1;
    CorruptPayload(delivered);
  }
  return delivered;
}

}  // namespace sse::net
