// Workload definitions, seeded input generation and the plaintext model
// every search result is checked against.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sse/core/types.h"

namespace perfbench {

/// Shared by every workload: keywords per document, Zipf exponent of
/// keywords and queries, plaintext bytes per document.
inline constexpr size_t kKeywordsPerDoc = 4;
inline constexpr double kSkew = 1.0;
inline constexpr size_t kContentBytes = 128;

struct WorkloadSpec {
  const char* name;
  const char* scheme;         // SchemeDescriptor name
  size_t corpus_docs;         // per owner, uploaded during set-up
  size_t vocabulary;          // keywords per owner ("kw000000" ...)
  size_t cache_max_entries;   // Opt-1 bound per shard (0 = unbounded)
  /// Op pattern repeated by each owner: 'S' = Search, 'U' = Store.
  const char* pattern;
  /// Ops per second (both owners together) that one --seconds buys. The
  /// op count is fixed before timing as ops_per_second * seconds, so the
  /// index grows with ops, not with time: a faster commit finishes the
  /// same sequence sooner instead of walking longer chains.
  double ops_per_second;
};

const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

struct Op {
  bool store = false;
  size_t doc = 0;         // index into OwnerInputs::docs (Store)
  std::string keyword;    // Search
};

/// One owner's inputs, generated entirely from the seed before timing.
struct OwnerInputs {
  uint64_t first_id = 0;                // owner's disjoint id range start
  std::vector<sse::core::Document> docs;  // corpus, then timed-phase docs
  size_t corpus_docs = 0;
  std::vector<std::string> warmup;      // every keyword in the corpus
  std::vector<Op> ops;                  // timed phase
};

OwnerInputs GenerateOwner(const WorkloadSpec& spec, uint64_t seed,
                          size_t owner, size_t timed_ops);

/// Plaintext model of one owner's acknowledged Stores.
class Model {
 public:
  explicit Model(const OwnerInputs* inputs) : inputs_(inputs) {}
  void Apply(const sse::core::Document& doc);
  /// Empty string when `outcome` is exactly the model's answer for
  /// `keyword` (ids and decrypted contents); otherwise what differs.
  std::string Check(const std::string& keyword,
                    const sse::core::SearchOutcome& outcome) const;

 private:
  const OwnerInputs* inputs_;
  std::unordered_map<std::string, std::vector<uint64_t>> postings_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
