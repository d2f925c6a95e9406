#include "sse/util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

namespace sse {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarning)};
std::atomic<uint64_t (*)()> g_trace_provider{nullptr};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void FormatIsoTime(uint64_t wall_micros, char* buf, size_t buf_size) {
  const std::time_t secs = static_cast<std::time_t>(wall_micros / 1000000);
  const unsigned millis = static_cast<unsigned>((wall_micros / 1000) % 1000);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  const size_t n = std::strftime(buf, buf_size, "%Y-%m-%dT%H:%M:%S", &tm_utc);
  std::snprintf(buf + n, buf_size - n, ".%03uZ", millis);
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(static_cast<int>(level)); }

LogLevel GetLogLevel() { return static_cast<LogLevel>(g_level.load()); }

void SetLogTraceIdProvider(uint64_t (*provider)()) {
  g_trace_provider.store(provider, std::memory_order_relaxed);
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) < g_level.load()) return;
  char ts[40];
  FormatIsoTime(WallMicros(), ts, sizeof(ts));
  auto* provider = g_trace_provider.load(std::memory_order_relaxed);
  const uint64_t trace_id = provider != nullptr ? provider() : 0;
  const std::string message = stream_.str();
  if (trace_id != 0) {
    std::fprintf(stderr, "[%s %s tid=%u trace=%llx] %s:%d %s\n",
                 LevelName(level_), ts, ThreadNumber(),
                 static_cast<unsigned long long>(trace_id), Basename(file_),
                 line_, message.c_str());
  } else {
    std::fprintf(stderr, "[%s %s tid=%u] %s:%d %s\n", LevelName(level_), ts,
                 ThreadNumber(), Basename(file_), line_, message.c_str());
  }
}

}  // namespace internal_logging

}  // namespace sse
