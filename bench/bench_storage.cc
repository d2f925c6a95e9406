// Experiment E-store — the server storage substrate: WAL append/sync and
// snapshot write. These bound how fast a durable SSE server can
// acknowledge updates and checkpoint its state.

#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sse/storage/snapshot.h"
#include "sse/storage/wal.h"
#include "sse/util/random.h"

namespace sse::storage {
namespace {

std::string TempPath(const char* name) {
  return std::string("/tmp/sse_bench_") + name + "." +
         std::to_string(::getpid());
}

// The WAL is a directory of segment files.
std::string TempWalDir(const char* name) {
  const std::string dir = TempPath(name);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void RemoveTree(const std::string& dir) {
  (void)std::system(("rm -rf " + dir).c_str());
}

void BM_WalAppend(benchmark::State& state) {
  const std::string dir = TempWalDir("wal");
  auto wal = WriteAheadLog::Open(dir).value();
  DeterministicRandom rng(1);
  Bytes record(static_cast<size_t>(state.range(0)));
  (void)rng.Fill(record);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(record));
  }
  (void)wal.Sync();
  state.SetBytesProcessed(state.iterations() * state.range(0));
  RemoveTree(dir);
}
BENCHMARK(BM_WalAppend)->Arg(256)->Arg(4096)->Arg(65536);

void BM_WalAppendSync(benchmark::State& state) {
  const std::string dir = TempWalDir("wal_sync");
  auto wal = WriteAheadLog::Open(dir).value();
  Bytes record(1024, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(record));
    benchmark::DoNotOptimize(wal.Sync());
  }
  RemoveTree(dir);
}
BENCHMARK(BM_WalAppendSync);

void BM_SnapshotWrite(benchmark::State& state) {
  const std::string path = TempPath("snap");
  DeterministicRandom rng(2);
  Bytes payload(static_cast<size_t>(state.range(0)));
  (void)rng.Fill(payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Snapshot::Write(path, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotWrite)->Arg(1 << 16)->Arg(1 << 22);

}  // namespace
}  // namespace sse::storage

BENCHMARK_MAIN();
