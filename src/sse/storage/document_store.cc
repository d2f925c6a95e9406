#include "sse/storage/document_store.h"

#include <string>

namespace sse::storage {

void DocumentStore::Put(uint64_t id, Bytes ciphertext) {
  auto it = docs_.find(id);
  if (it != docs_.end()) {
    total_bytes_ -= it->second.size();
    it->second = std::move(ciphertext);
    total_bytes_ += it->second.size();
    return;
  }
  total_bytes_ += ciphertext.size();
  docs_.emplace(id, std::move(ciphertext));
}

Result<Bytes> DocumentStore::Get(uint64_t id) const {
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    return Status::NotFound("document id " + std::to_string(id));
  }
  return it->second;
}

bool DocumentStore::Contains(uint64_t id) const {
  return docs_.count(id) > 0;
}

std::vector<std::pair<uint64_t, Bytes>> DocumentStore::GetMany(
    const std::vector<uint64_t>& ids) const {
  std::vector<std::pair<uint64_t, Bytes>> out;
  out.reserve(ids.size());
  for (uint64_t id : ids) {
    auto it = docs_.find(id);
    if (it != docs_.end()) out.emplace_back(id, it->second);
  }
  return out;
}

void DocumentStore::ForEach(
    const std::function<bool(uint64_t, const Bytes&)>& fn) const {
  for (const auto& [id, blob] : docs_) {
    if (!fn(id, blob)) return;
  }
}

}  // namespace sse::storage
