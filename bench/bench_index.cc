// Experiment E-index — §5.1's "tree structure for the searchable
// representations": B+-tree point lookups over 32-byte PRF tokens, versus
// the hash-table ablation, across index sizes. The B+-tree's O(log u)
// growth (and the hash map's O(1)) frame the paper's complexity claim.

#include <benchmark/benchmark.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "sse/index/btree.h"
#include "sse/util/random.h"

namespace sse::index {
namespace {

std::vector<Bytes> MakeTokens(size_t n, uint64_t seed) {
  DeterministicRandom rng(seed);
  std::vector<Bytes> tokens(n);
  for (auto& token : tokens) {
    token.resize(32);
    (void)rng.Fill(token);
  }
  return tokens;
}

void BM_BTreeLookup(benchmark::State& state) {
  const size_t u = static_cast<size_t>(state.range(0));
  BTreeMap<uint64_t> tree(64);
  auto tokens = MakeTokens(u, 1);
  for (size_t i = 0; i < u; ++i) tree.Put(tokens[i], i);
  tree.ResetStats();  // exclude insertion comparisons from the counter
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(tokens[i]));
    i = (i + 7919) % u;
  }
  state.counters["comparisons/lookup"] =
      static_cast<double>(tree.comparisons()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Range(1 << 10, 1 << 20);

void BM_HashLookup(benchmark::State& state) {
  const size_t u = static_cast<size_t>(state.range(0));
  std::unordered_map<std::string, uint64_t> map;
  auto tokens = MakeTokens(u, 2);
  for (size_t i = 0; i < u; ++i) map.emplace(BytesToString(tokens[i]), i);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(BytesToString(tokens[i])));
    i = (i + 7919) % u;
  }
}
BENCHMARK(BM_HashLookup)->Range(1 << 10, 1 << 20);

void BM_BTreeInsert(benchmark::State& state) {
  const size_t u = static_cast<size_t>(state.range(0));
  auto tokens = MakeTokens(u, 3);
  for (auto _ : state) {
    state.PauseTiming();
    BTreeMap<uint64_t> tree(64);
    state.ResumeTiming();
    for (size_t i = 0; i < u; ++i) tree.Put(tokens[i], i);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(u));
}
BENCHMARK(BM_BTreeInsert)->Arg(1 << 12)->Arg(1 << 16);

void BM_BTreeMissLookup(benchmark::State& state) {
  const size_t u = static_cast<size_t>(state.range(0));
  BTreeMap<uint64_t> tree(64);
  auto tokens = MakeTokens(u, 4);
  for (size_t i = 0; i < u; ++i) tree.Put(tokens[i], i);
  auto probes = MakeTokens(1024, 5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(probes[i]));
    i = (i + 1) % probes.size();
  }
}
BENCHMARK(BM_BTreeMissLookup)->Arg(1 << 12)->Arg(1 << 18);

}  // namespace
}  // namespace sse::index

BENCHMARK_MAIN();
