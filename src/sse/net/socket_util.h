#ifndef SSE_NET_SOCKET_UTIL_H_
#define SSE_NET_SOCKET_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "sse/util/result.h"

namespace sse::net {

/// Shared socket plumbing for the server (reactor/connection) and client
/// (TcpChannel) sides, so EINTR retries, partial-write handling and the
/// standard option set (SO_REUSEADDR on listeners, TCP_NODELAY on every
/// stream) live in exactly one place.

/// Sets or clears O_NONBLOCK.
Status SetNonBlocking(int fd, bool enabled);

/// Disables Nagle; applied to every accepted and dialed stream socket.
void SetNoDelay(int fd);

/// Applies SO_SNDTIMEO / SO_RCVTIMEO (0 = unbounded) to `fd`. Blocking
/// sockets only; an expired timeout surfaces as EAGAIN from send/recv.
void ApplyIoTimeouts(int fd, double send_ms, double recv_ms);

/// Creates a loopback listener on `port` (0 = ephemeral) with SO_REUSEADDR
/// set, bound and listening with a backlog of 128. `bound_port` receives
/// the actual port.
Result<int> ListenTcp(uint16_t port, uint16_t* bound_port);

/// Dials 127.0.0.1-style `host`:`port`. With a positive timeout the dial is
/// non-blocking under a poll(2) deadline; the returned fd is blocking, with
/// TCP_NODELAY and the given IO timeouts applied.
Result<int> DialTcp(const std::string& host, uint16_t port,
                    double connect_timeout_ms, double send_timeout_ms,
                    double recv_timeout_ms);

/// Writes all `len` bytes to a blocking socket, retrying EINTR and
/// resuming after short writes. EAGAIN (an expired SO_SNDTIMEO) surfaces
/// as DEADLINE_EXCEEDED, other failures as IO_ERROR.
Status WriteAllBlocking(int fd, const uint8_t* data, size_t len);

/// Outcome of one non-blocking read/write attempt.
enum class IoResult {
  kOk,          // made progress; *n holds the byte count (> 0)
  kWouldBlock,  // EAGAIN/EWOULDBLOCK: retry when epoll says ready
  kEof,         // read only: peer closed cleanly
  kError,       // unrecoverable socket error
};

/// One recv() on a non-blocking socket, retrying EINTR. On kOk, `*n` > 0.
IoResult ReadSomeNonBlocking(int fd, uint8_t* buf, size_t cap, size_t* n);

/// One send() on a non-blocking socket, retrying EINTR; partial writes are
/// reported via `*n` and the caller resumes on the next EPOLLOUT.
IoResult WriteSomeNonBlocking(int fd, const uint8_t* data, size_t len,
                              size_t* n);

}  // namespace sse::net

#endif  // SSE_NET_SOCKET_UTIL_H_
