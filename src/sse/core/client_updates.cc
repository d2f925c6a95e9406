#include "sse/core/client_updates.h"

#include <map>

#include "sse/index/posting.h"

namespace sse::core {

std::vector<KeywordUpdate> GroupByKeyword(const std::vector<Document>& docs) {
  std::map<std::string, std::vector<uint64_t>> by_keyword;
  for (const Document& doc : docs) {
    for (const std::string& kw : doc.keywords) {
      by_keyword[kw].push_back(doc.id);
    }
  }
  std::vector<KeywordUpdate> updates;
  updates.reserve(by_keyword.size());
  for (auto& [kw, ids] : by_keyword) {
    updates.push_back(KeywordUpdate{kw, index::Canonicalize(std::move(ids))});
  }
  return updates;
}

std::vector<KeywordUpdate> PerKeyword(const std::vector<std::string>& keywords,
                                      const std::vector<uint64_t>& ids) {
  const std::set<std::string> unique(keywords.begin(), keywords.end());
  std::vector<KeywordUpdate> updates;
  updates.reserve(unique.size());
  for (const std::string& kw : unique) {
    updates.push_back(KeywordUpdate{kw, ids});
  }
  return updates;
}

Status UsedIds::CheckFresh(const std::vector<Document>& docs) const {
  for (const Document& doc : docs) {
    if (Contains(doc.id)) {
      return Status::AlreadyExists("document id " + std::to_string(doc.id) +
                                   " was already stored");
    }
  }
  return Status::OK();
}

void UsedIds::Add(const std::vector<Document>& docs) {
  for (const Document& doc : docs) ids_.insert(doc.id);
}

}  // namespace sse::core
