// Experiment E-leak — §5.7: what updates leak to the honest-but-curious
// server, and how batching and fake-update padding reduce it. Measures the
// per-update keyword counts an observer extracts from the transcript and
// the entropy of the update-size sequence.

#include <cstdio>

#include <set>

#include "bench_common.h"
#include "sse/core/padding.h"
#include "sse/security/leakage.h"

namespace sse::bench {
namespace {

core::SseSystem TranscribingSystem(DeterministicRandom* rng) {
  core::SystemConfig config = BenchConfig(/*max_documents=*/1 << 12,
                                          /*chain_length=*/2048);
  config.channel.record_transcript = true;
  return MustCreate(core::SystemKind::kScheme2, config, rng);
}

void SweepBatchSize() {
  std::printf(
      "E-leak (a): batching (Section 5.7). Storing 64 documents in batches\n"
      "of b leaks 64/b observations; each observation only aggregates over\n"
      "the batch, so per-document keyword counts blur as b grows.\n\n");
  TablePrinter table({"batch_docs", "observations", "mean_kw/obs",
                      "size_entropy_bits"});
  table.PrintHeader();
  for (size_t batch : {1u, 4u, 16u, 64u}) {
    DeterministicRandom rng(51);
    core::SseSystem sys = TranscribingSystem(&rng);
    auto docs = phr::GenerateDocuments(64, /*vocabulary=*/48,
                                       /*keywords_per_doc=*/4, 1.0, 17);
    for (size_t start = 0; start < docs.size(); start += batch) {
      std::vector<core::Document> chunk(
          docs.begin() + start,
          docs.begin() + std::min(start + batch, docs.size()));
      MustOk(sys.client->Store(chunk), "store");
    }
    security::LeakageReport report =
        security::AnalyzeTranscript(sys.channel->transcript());
    double mean = 0;
    for (uint64_t c : report.update_keyword_counts) {
      mean += static_cast<double>(c);
    }
    mean /= static_cast<double>(report.update_keyword_counts.size());
    table.PrintRow({FmtU(batch), FmtU(report.update_keyword_counts.size()),
                    Fmt("%.1f", mean),
                    Fmt("%.2f", report.UpdateSizeEntropy())});
  }
  table.PrintRule();
  std::printf("\n");
}

void FakePadding() {
  std::printf(
      "E-leak (b): fake-update padding. Updates padded to a constant\n"
      "keyword count produce a zero-entropy size sequence: the observer\n"
      "learns nothing from update sizes.\n\n");
  TablePrinter table({"padding", "updates", "distinct_sizes",
                      "size_entropy_bits"});
  table.PrintHeader();
  for (bool pad : {false, true}) {
    DeterministicRandom rng(52);
    core::SseSystem sys = TranscribingSystem(&rng);
    const core::PaddingPolicy policy =
        pad ? core::PaddingPolicy{core::PaddingPolicy::Mode::kFixedBucket, 6}
            : core::PaddingPolicy{};
    core::PaddedClient client(sys.client.get(), policy, &rng);
    DeterministicRandom shape(53);
    for (int i = 0; i < 48; ++i) {
      std::vector<std::string> kws;
      const size_t real = 1 + shape.Next() % 5;
      for (size_t k = 0; k < real; ++k) {
        kws.push_back("kw" + std::to_string(i) + "_" + std::to_string(k));
      }
      MustOk(client.FakeUpdate(kws), "padded update");
    }
    security::LeakageReport report =
        security::AnalyzeTranscript(sys.channel->transcript());
    std::set<uint64_t> distinct(report.update_keyword_counts.begin(),
                                report.update_keyword_counts.end());
    table.PrintRow({pad ? "pad_to_6" : "none",
                    FmtU(report.update_keyword_counts.size()),
                    FmtU(distinct.size()),
                    Fmt("%.2f", report.UpdateSizeEntropy())});
  }
  table.PrintRule();
  std::printf("\n");
}

}  // namespace
}  // namespace sse::bench

int main() {
  sse::bench::SweepBatchSize();
  sse::bench::FakePadding();
  return 0;
}
