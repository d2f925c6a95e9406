#include "sse/core/types.h"

#include "sse/crypto/hkdf.h"

namespace sse::core {

Document Document::Make(uint64_t id, std::string_view content,
                        std::vector<std::string> keywords) {
  Document d;
  d.id = id;
  d.content = StringToBytes(content);
  d.keywords = std::move(keywords);
  return d;
}

Result<std::vector<SearchOutcome>> SseClientInterface::MultiSearch(
    const std::vector<std::string>& keywords) {
  std::vector<SearchOutcome> outcomes;
  outcomes.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    Result<SearchOutcome> one = Search(keyword);
    if (!one.ok()) return one.status();
    outcomes.push_back(std::move(one).value());
  }
  return outcomes;
}

Bytes EncodeDocId(uint64_t id) {
  Bytes out(8);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(id >> (8 * i));
  return out;
}

Result<DataCipher> DataCipher::Create(const crypto::MasterKey& key) {
  Bytes aead_key;
  SSE_ASSIGN_OR_RETURN(aead_key, crypto::HkdfSha256(key.data_key(), /*salt=*/{},
                                                    "sse.data.aead", 32));
  Result<crypto::Aead> aead = crypto::Aead::Create(aead_key);
  if (!aead.ok()) return aead.status();
  return DataCipher(std::move(aead).value());
}

Result<Bytes> DataCipher::Seal(const Document& doc, RandomSource& rng) const {
  return aead_.Seal(doc.content, EncodeDocId(doc.id), rng);
}

Result<std::vector<WireDocument>> DataCipher::SealAll(
    const std::vector<Document>& docs, RandomSource& rng) const {
  std::vector<WireDocument> wire_docs;
  wire_docs.reserve(docs.size());
  for (const Document& doc : docs) {
    WireDocument wire;
    wire.id = doc.id;
    SSE_ASSIGN_OR_RETURN(wire.ciphertext, Seal(doc, rng));
    wire_docs.push_back(std::move(wire));
  }
  return wire_docs;
}

Status DataCipher::OpenAll(const std::vector<WireDocument>& docs,
                           SearchOutcome& outcome) const {
  outcome.documents.reserve(outcome.documents.size() + docs.size());
  for (const WireDocument& wire : docs) {
    Bytes plain;
    SSE_ASSIGN_OR_RETURN(plain,
                         aead_.Open(wire.ciphertext, EncodeDocId(wire.id)));
    outcome.documents.emplace_back(wire.id, std::move(plain));
  }
  return Status::OK();
}

}  // namespace sse::core
