#include "sse/phr/workload.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "sse/phr/tokenizer.h"

namespace sse::phr {

namespace {

constexpr std::array<const char*, 24> kConditions = {
    "hypertension",   "type 2 diabetes", "asthma",        "influenza",
    "osteoarthritis", "depression",      "migraine",      "anemia",
    "hypothyroidism", "eczema",          "bronchitis",    "gastritis",
    "sciatica",       "psoriasis",       "gout",          "angina",
    "epilepsy",       "glaucoma",        "hepatitis b",   "pneumonia",
    "sinusitis",      "tinnitus",        "vertigo",       "shingles"};

constexpr std::array<const char*, 20> kMedications = {
    "lisinopril",  "metformin",  "albuterol",     "oseltamivir", "ibuprofen",
    "sertraline",  "sumatriptan", "ferrous sulfate", "levothyroxine",
    "hydrocortisone", "amoxicillin", "omeprazole", "naproxen",    "methotrexate",
    "allopurinol", "nitroglycerin", "lamotrigine", "latanoprost", "tenofovir",
    "azithromycin"};

constexpr std::array<const char*, 12> kAllergies = {
    "penicillin", "peanuts", "latex",   "pollen",  "shellfish", "aspirin",
    "eggs",       "soy",     "sulfa",   "wheat",   "dust mites", "bee venom"};

constexpr std::array<const char*, 16> kFirstNames = {
    "emma", "liam", "sofia", "noah", "mila", "lucas", "julia", "finn",
    "anna", "daan", "eva",   "sem",  "tess", "bram",  "noor",  "jesse"};

constexpr std::array<const char*, 16> kLastNames = {
    "jansen", "devries", "bakker",   "visser",  "smit",   "meijer",
    "mulder", "bos",     "vos",      "peters",  "hendriks", "dekker",
    "kok",    "vermeer", "scholten", "prins"};

constexpr std::array<const char*, 8> kNoteTemplates = {
    "patient reports mild symptoms improving with rest",
    "follow up visit scheduled blood pressure stable",
    "prescribed new medication monitor for side effects",
    "lab results within normal range continue treatment",
    "patient advised on diet and regular exercise",
    "symptoms persistent referred to specialist",
    "vaccination administered no adverse reaction observed",
    "chronic condition stable renewal of prescription"};

}  // namespace

ZipfSampler::ZipfSampler(size_t n, double s) {
  if (n == 0) n = 1;
  cdf_.resize(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& v : cdf_) v /= total;
}

size_t ZipfSampler::Sample(DeterministicRandom& rng) const {
  const double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

PhrWorkload::PhrWorkload(const Params& params) {
  DeterministicRandom rng(params.seed);
  ZipfSampler condition_sampler(kConditions.size(), params.condition_skew);
  ZipfSampler medication_sampler(kMedications.size(), params.condition_skew);

  records_.reserve(params.num_patients * params.visits_per_patient);
  for (size_t p = 0; p < params.num_patients; ++p) {
    char pid[32];
    std::snprintf(pid, sizeof(pid), "p%05zu", p);
    std::string name = std::string(kFirstNames[rng.Next() % kFirstNames.size()]) +
                       " " + kLastNames[rng.Next() % kLastNames.size()];
    // A patient's chronic condition persists across visits.
    const size_t chronic = condition_sampler.Sample(rng);
    for (size_t v = 0; v < params.visits_per_patient; ++v) {
      PatientRecord record;
      record.patient_id = pid;
      record.name = name;
      char date[16];
      std::snprintf(date, sizeof(date), "2026-%02zu-%02zu", 1 + (v % 12),
                    1 + (rng.Next() % 28));
      record.visit_date = date;
      record.practitioner =
          std::string("dr ") + kLastNames[rng.Next() % kLastNames.size()];
      record.conditions.push_back(kConditions[chronic]);
      if (rng.NextDouble() < 0.4) {
        record.conditions.push_back(
            kConditions[condition_sampler.Sample(rng)]);
      }
      record.medications.push_back(
          kMedications[medication_sampler.Sample(rng)]);
      if (rng.NextDouble() < 0.25) {
        record.allergies.push_back(kAllergies[rng.Next() % kAllergies.size()]);
      }
      record.notes = kNoteTemplates[rng.Next() % kNoteTemplates.size()];
      records_.push_back(std::move(record));
    }
  }
}

std::vector<core::Document> PhrWorkload::ToDocuments() const {
  std::vector<core::Document> docs;
  docs.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    docs.push_back(RecordToDocument(static_cast<uint64_t>(i), records_[i]));
  }
  return docs;
}

std::string SyntheticKeyword(size_t rank) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "kw%06zu", rank);
  return buf;
}

std::vector<core::Document> GenerateDocuments(size_t num_docs,
                                              size_t vocabulary,
                                              size_t keywords_per_doc,
                                              double skew, uint64_t seed,
                                              size_t content_bytes,
                                              uint64_t first_id) {
  DeterministicRandom rng(seed);
  ZipfSampler sampler(vocabulary, skew);
  std::vector<core::Document> docs;
  docs.reserve(num_docs);
  for (size_t i = 0; i < num_docs; ++i) {
    core::Document doc;
    doc.id = first_id + i;
    Bytes content(content_bytes);
    (void)rng.Fill(content);
    doc.content = std::move(content);
    // Draw until keywords_per_doc distinct ranks (bounded retries so tiny
    // vocabularies cannot loop forever).
    std::vector<std::string> keywords;
    size_t attempts = 0;
    while (keywords.size() < keywords_per_doc &&
           attempts < keywords_per_doc * 32) {
      ++attempts;
      std::string kw = SyntheticKeyword(sampler.Sample(rng));
      if (std::find(keywords.begin(), keywords.end(), kw) == keywords.end()) {
        keywords.push_back(std::move(kw));
      }
    }
    doc.keywords = std::move(keywords);
    docs.push_back(std::move(doc));
  }
  return docs;
}

}  // namespace sse::phr
