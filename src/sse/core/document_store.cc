#include "sse/core/document_store.h"

#include <utility>

namespace sse::core {

void DocumentStore::Put(uint64_t id, Bytes ciphertext) {
  docs_.insert_or_assign(id, std::move(ciphertext));
}

void DocumentStore::Put(std::vector<WireDocument> docs) {
  for (WireDocument& doc : docs) Put(doc.id, std::move(doc.ciphertext));
}

std::vector<WireDocument> DocumentStore::Fetch(
    const std::vector<uint64_t>& ids) const {
  std::vector<WireDocument> out;
  out.reserve(ids.size());
  for (uint64_t id : ids) {
    auto it = docs_.find(id);
    if (it != docs_.end()) out.push_back(WireDocument{id, it->second});
  }
  return out;
}

}  // namespace sse::core
