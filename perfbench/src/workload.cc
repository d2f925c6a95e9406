#include "workload.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "sse/phr/workload.h"
#include "sse/util/random.h"

namespace perfbench {

namespace {

// Sizes are explained in perfbench/README.md ("Workloads").
const std::vector<WorkloadSpec> kWorkloads = {
    {"search_hot", "scheme2", 1500, 300, 0, "S", 2200.0},
    {"visit_mixed", "scheme2", 600, 300, 16, "SU", 150.0},
    {"fp_hot_updates", "scheme3", 60, 200, 0, "UUS", 120.0},
};

uint64_t Mix(uint64_t seed, uint64_t owner, uint64_t stream) {
  // splitmix64 finalizer over the three inputs.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + owner * 0xbf58476d1ce4e5b9ULL +
               stream * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

OwnerInputs GenerateOwner(const WorkloadSpec& spec, uint64_t seed,
                          size_t owner, size_t timed_ops) {
  const size_t pattern_len = std::strlen(spec.pattern);
  size_t timed_stores = 0;
  for (size_t i = 0; i < timed_ops; ++i) {
    if (spec.pattern[i % pattern_len] == 'U') ++timed_stores;
  }

  OwnerInputs in;
  in.first_id = (owner + 1) * 1000000000ULL;
  in.corpus_docs = spec.corpus_docs;
  in.docs = sse::phr::GenerateDocuments(
      spec.corpus_docs + timed_stores, spec.vocabulary, kKeywordsPerDoc, kSkew,
      Mix(seed, owner, 1), kContentBytes, in.first_id);

  std::set<std::string> present;
  for (size_t i = 0; i < spec.corpus_docs; ++i) {
    present.insert(in.docs[i].keywords.begin(), in.docs[i].keywords.end());
  }
  in.warmup.assign(present.begin(), present.end());

  // Queries follow the corpus skew but only name keywords already stored,
  // so every Search reaches the server.
  sse::DeterministicRandom rng(Mix(seed, owner, 2));
  const sse::phr::ZipfSampler queries(spec.vocabulary, kSkew);
  size_t next_doc = spec.corpus_docs;
  in.ops.reserve(timed_ops);
  for (size_t i = 0; i < timed_ops; ++i) {
    Op op;
    if (spec.pattern[i % pattern_len] == 'U') {
      op.store = true;
      op.doc = next_doc++;
      const auto& kws = in.docs[op.doc].keywords;
      present.insert(kws.begin(), kws.end());
    } else {
      op.keyword = in.warmup.front();
      for (int tries = 0; tries < 64; ++tries) {
        std::string kw = sse::phr::SyntheticKeyword(queries.Sample(rng));
        if (present.count(kw) > 0) {
          op.keyword = std::move(kw);
          break;
        }
      }
    }
    in.ops.push_back(std::move(op));
  }
  return in;
}

void Model::Apply(const sse::core::Document& doc) {
  for (const std::string& kw : doc.keywords) postings_[kw].push_back(doc.id);
}

std::string Model::Check(const std::string& keyword,
                         const sse::core::SearchOutcome& outcome) const {
  static const std::vector<uint64_t> kNone;
  auto it = postings_.find(keyword);
  const std::vector<uint64_t>& want = it == postings_.end() ? kNone : it->second;
  if (outcome.ids != want) {
    return keyword + ": " + std::to_string(outcome.ids.size()) +
           " ids returned, model has " + std::to_string(want.size());
  }
  if (outcome.documents.size() != want.size()) {
    return keyword + ": " + std::to_string(outcome.documents.size()) +
           " documents decrypted for " + std::to_string(want.size()) + " ids";
  }
  for (const auto& [id, plain] : outcome.documents) {
    const uint64_t index = id - inputs_->first_id;
    if (id < inputs_->first_id || index >= inputs_->docs.size() ||
        inputs_->docs[index].content != plain) {
      return keyword + ": document " + std::to_string(id) +
             " does not decrypt to its stored bytes";
    }
  }
  return "";
}

}  // namespace perfbench
