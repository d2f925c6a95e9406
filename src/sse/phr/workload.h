#ifndef SSE_PHR_WORKLOAD_H_
#define SSE_PHR_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sse/core/types.h"
#include "sse/phr/record.h"
#include "sse/util/random.h"

namespace sse::phr {

/// Zipf-distributed sampler over ranks 0..n-1 (rank 0 most popular).
/// Keyword frequencies in text corpora — and diagnoses in medical records —
/// are heavily skewed; the generator uses this to shape realistic posting
/// list distributions.
class ZipfSampler {
 public:
  /// `n` >= 1 items, skew `s` >= 0 (0 = uniform; ~1 = classic Zipf).
  ZipfSampler(size_t n, double s);

  size_t Sample(DeterministicRandom& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Synthetic patient-record generator standing in for the real PHR data the
/// paper's application would hold (no real medical data exists here; see
/// DESIGN.md substitutions). Vocabulary sizes and skew are chosen so the
/// keyword-frequency shape matches what the scenarios exercise: a few very
/// common conditions, a long tail of rare ones.
class PhrWorkload {
 public:
  struct Params {
    size_t num_patients = 100;
    size_t visits_per_patient = 4;  // documents = patients * visits
    double condition_skew = 1.1;
    uint64_t seed = 42;
  };

  explicit PhrWorkload(const Params& params);

  /// All generated records, in storage order.
  const std::vector<PatientRecord>& records() const { return records_; }

  /// Documents ready for SseClientInterface::Store, ids 0..n-1.
  std::vector<core::Document> ToDocuments() const;

 private:
  std::vector<PatientRecord> records_;
};

/// Generic synthetic workload for the benchmark harness: `num_docs`
/// documents over a `vocabulary` of "kw<i>" keywords, `keywords_per_doc`
/// each, Zipf-skewed. Deterministic in `seed`.
std::vector<core::Document> GenerateDocuments(size_t num_docs,
                                              size_t vocabulary,
                                              size_t keywords_per_doc,
                                              double skew, uint64_t seed,
                                              size_t content_bytes = 64,
                                              uint64_t first_id = 0);

/// The synthetic keyword string of rank `rank` ("kw000123").
std::string SyntheticKeyword(size_t rank);

}  // namespace sse::phr

#endif  // SSE_PHR_WORKLOAD_H_
