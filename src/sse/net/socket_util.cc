#include "sse/net/socket_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sse::net {

Status SetNonBlocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Status::IoError("fcntl(F_GETFL) failed: " +
                           std::string(std::strerror(errno)));
  }
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) != 0) {
    return Status::IoError("fcntl(F_SETFL) failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void ApplyIoTimeouts(int fd, double send_ms, double recv_ms) {
  auto to_timeval = [](double ms) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (ms - 1000.0 * static_cast<double>(tv.tv_sec)) * 1000.0);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1000;  // min 1ms
    return tv;
  };
  if (send_ms > 0.0) {
    timeval tv = to_timeval(send_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (recv_ms > 0.0) {
    timeval tv = to_timeval(recv_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
}

Result<int> ListenTcp(uint16_t port, uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("bind failed: " + std::string(std::strerror(errno)));
  }
  if (::listen(fd, /*backlog=*/128) != 0) {
    ::close(fd);
    return Status::IoError("listen failed: " +
                           std::string(std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    return Status::IoError("getsockname failed");
  }
  if (bound_port != nullptr) *bound_port = ntohs(addr.sin_port);
  return fd;
}

Result<int> DialTcp(const std::string& host, uint16_t port,
                    double connect_timeout_ms, double send_timeout_ms,
                    double recv_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("invalid host address: " + host);
  }

  if (connect_timeout_ms > 0.0) {
    // Bounded connect: dial non-blocking, wait for writability with poll.
    if (Status s = SetNonBlocking(fd, true); !s.ok()) {
      ::close(fd);
      return s;
    }
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      const int timeout_ms = connect_timeout_ms > 1.0
                                 ? static_cast<int>(connect_timeout_ms)
                                 : 1;
      do {
        rc = ::poll(&pfd, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        ::close(fd);
        return Status::DeadlineExceeded("connect timed out");
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (rc < 0 ||
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
          so_error != 0) {
        const int err = so_error != 0 ? so_error : errno;
        ::close(fd);
        return Status::IoError("connect failed: " +
                               std::string(std::strerror(err)));
      }
    } else if (rc != 0) {
      ::close(fd);
      return Status::IoError("connect failed: " +
                             std::string(std::strerror(errno)));
    }
    if (Status s = SetNonBlocking(fd, false); !s.ok()) {
      ::close(fd);
      return s;
    }
  } else {
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      ::close(fd);
      return Status::IoError("connect failed: " +
                             std::string(std::strerror(errno)));
    }
  }

  SetNoDelay(fd);
  ApplyIoTimeouts(fd, send_timeout_ms, recv_timeout_ms);
  return fd;
}

Status WriteAllBlocking(int fd, const uint8_t* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Status::DeadlineExceeded("socket send timed out");
      }
      return Status::IoError("socket send failed: " +
                             std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

IoResult ReadSomeNonBlocking(int fd, uint8_t* buf, size_t cap, size_t* n) {
  *n = 0;
  for (;;) {
    const ssize_t got = ::recv(fd, buf, cap, 0);
    if (got > 0) {
      *n = static_cast<size_t>(got);
      return IoResult::kOk;
    }
    if (got == 0) return IoResult::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kWouldBlock;
    return IoResult::kError;
  }
}

IoResult WriteSomeNonBlocking(int fd, const uint8_t* data, size_t len,
                              size_t* n) {
  *n = 0;
  for (;;) {
    const ssize_t sent = ::send(fd, data, len, MSG_NOSIGNAL);
    if (sent > 0) {
      *n = static_cast<size_t>(sent);
      return IoResult::kOk;
    }
    if (sent == 0) return IoResult::kWouldBlock;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kWouldBlock;
    return IoResult::kError;
  }
}

}  // namespace sse::net
