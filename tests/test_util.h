#ifndef SSE_TESTS_TEST_UTIL_H_
#define SSE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "sse/core/registry.h"
#include "sse/crypto/keys.h"
#include "sse/index/posting.h"
#include "sse/obs/metrics_registry.h"
#include "sse/util/random.h"
#include "sse/util/status.h"

namespace sse::testing {

/// Asserts a Status/Result is OK with a useful failure message.
/// Copies by value: `expr` is often `temporary_result.status()`, whose
/// referent dies with the temporary at the end of the initializer — a
/// reference here would dangle before the ok() check runs.
#define SSE_ASSERT_OK(expr)                                 \
  do {                                                      \
    const ::sse::Status _st = (expr);                       \
    ASSERT_TRUE(_st.ok()) << "status: " << _st.ToString();  \
  } while (0)

#define SSE_EXPECT_OK(expr)                                 \
  do {                                                      \
    const ::sse::Status _st = (expr);                       \
    EXPECT_TRUE(_st.ok()) << "status: " << _st.ToString();  \
  } while (0)

#define SSE_ASSERT_OK_RESULT(result)                                       \
  ASSERT_TRUE((result).ok()) << "status: " << (result).status().ToString()

#define SSE_EXPECT_OK_RESULT(result)                                       \
  EXPECT_TRUE((result).ok()) << "status: " << (result).status().ToString()

/// Deterministic master key for tests.
inline crypto::MasterKey TestMasterKey(uint64_t seed = 1) {
  DeterministicRandom rng(seed);
  return crypto::MasterKey::Generate(rng).value();
}

/// Scheme options sized for fast tests: small bitmap, short chain, toy
/// ElGamal group.
inline core::SystemConfig FastTestConfig() {
  core::SystemConfig config;
  config.scheme.max_documents = 256;
  config.scheme.chain_length = 64;
  config.scheme.elgamal_group = crypto::ElGamalGroupId::kToy512;
  config.goh.bloom_bits = 2048;
  config.goh.num_keys = 8;
  return config;
}

/// Builds a ready system for tests; aborts the test on failure.
inline core::SseSystem MakeTestSystem(core::SystemKind kind,
                                      RandomSource* rng,
                                      core::SystemConfig config) {
  auto result = core::CreateSystem(kind, TestMasterKey(), config, rng);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

inline core::SseSystem MakeTestSystem(core::SystemKind kind,
                                      RandomSource* rng) {
  return MakeTestSystem(kind, rng, FastTestConfig());
}

/// Current value of the process-wide engine counter sse_engine_<name>_total.
/// Every engine in a test process adds into the same series, so tests
/// compare the values taken before and after the traffic they check.
inline uint64_t EngineCounter(const std::string& name) {
  return obs::MetricsRegistry::Global()
      .GetCounter("sse_engine_" + name + "_total")
      ->Value();
}

/// `n` canonical id lists, one per posting segment, drawn from ranges that
/// overlap at random offsets: the merged result interleaves the segments'
/// ids and repeats many of them.
inline std::vector<index::DocIdList> OverlappingIdLists(size_t n,
                                                        uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::vector<index::DocIdList> lists;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t base = gen() % 150;
    index::DocIdList ids;
    for (uint64_t k = 0, count = 1 + gen() % 6; k < count; ++k) {
      ids.push_back(base + gen() % 60);
    }
    lists.push_back(index::Canonicalize(std::move(ids)));
  }
  return lists;
}

/// Decodes the hex literal of a known-answer vector; a malformed literal
/// fails the test instead of silently comparing against nothing.
inline Bytes FromHex(std::string_view hex) {
  Result<Bytes> bytes = HexDecode(hex);
  EXPECT_TRUE(bytes.ok()) << "bad hex literal: " << hex;
  return bytes.ok() ? std::move(bytes).value() : Bytes{};
}

/// Creates a fresh temp directory and removes it (recursively) at scope
/// exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/sse_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    path_ = dir != nullptr ? dir : "/tmp";
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace sse::testing

#endif  // SSE_TESTS_TEST_UTIL_H_
