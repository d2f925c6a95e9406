#ifndef SSE_UTIL_LOGGING_H_
#define SSE_UTIL_LOGGING_H_

#include <cstdint>
#include <sstream>

namespace sse {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the global minimum level; messages below it are dropped. Default is
/// kWarning so library users see problems but not chatter.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Lets log lines carry the calling thread's active trace id (installed by
/// the obs layer; returns 0 when the thread has no sampled trace open).
void SetLogTraceIdProvider(uint64_t (*provider)());

namespace internal_logging {

/// Stream-style one-shot logger; on destruction it writes one line to
/// stderr:
///   [LEVEL 2026-08-05T12:34:56.789Z tid=3 trace=1a2b] file.cc:42 message
/// where tid is a small per-process thread number and trace the logging
/// thread's active trace id (omitted when it has none).
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

#define SSE_LOG(level)                                                      \
  ::sse::internal_logging::LogMessage(::sse::LogLevel::k##level, __FILE__, \
                                      __LINE__)                            \
      .stream()

}  // namespace sse

#endif  // SSE_UTIL_LOGGING_H_
