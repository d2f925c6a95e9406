#ifndef SSE_CORE_TOKEN_MAP_H_
#define SSE_CORE_TOKEN_MAP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "sse/index/btree.h"
#include "sse/util/bytes.h"

namespace sse::core {

/// Server-side container mapping search tokens `f_{k_w}(w)` to searchable
/// representations. Every server uses the B+-tree of order 64 (the paper's
/// `O(log u)` story); a hash backend exists for the index ablation bench.
template <typename V>
class TokenMap {
 public:
  explicit TokenMap(bool use_hash = false) : use_hash_(use_hash) {}

  TokenMap(const TokenMap&) = delete;
  TokenMap& operator=(const TokenMap&) = delete;
  TokenMap(TokenMap&&) noexcept = default;
  TokenMap& operator=(TokenMap&&) noexcept = default;

  size_t size() const { return use_hash_ ? hash_.size() : tree_.size(); }

  /// Inserts or replaces. Returns true if the token was new.
  bool Put(BytesView token, V value) {
    if (use_hash_) {
      auto [it, inserted] =
          hash_.insert_or_assign(BytesToString(token), std::move(value));
      (void)it;
      return inserted;
    }
    return tree_.Put(token, std::move(value));
  }

  const V* Get(BytesView token) const {
    if (use_hash_) {
      auto it = hash_.find(BytesToString(token));
      return it == hash_.end() ? nullptr : &it->second;
    }
    return tree_.Get(token);
  }

  V* GetMutable(BytesView token) {
    if (use_hash_) {
      auto it = hash_.find(BytesToString(token));
      return it == hash_.end() ? nullptr : &it->second;
    }
    return tree_.GetMutable(token);
  }

  bool Contains(BytesView token) const { return Get(token) != nullptr; }

  bool Erase(BytesView token) {
    if (use_hash_) return hash_.erase(BytesToString(token)) > 0;
    return tree_.Erase(token);
  }

  void Clear() {
    hash_.clear();
    tree_.Clear();
  }

  /// Visits every (token, value); order is the token order for the tree
  /// backend, unspecified for the hash backend.
  void ForEach(const std::function<bool(const Bytes&, const V&)>& fn) const {
    if (use_hash_) {
      for (const auto& [k, v] : hash_) {
        if (!fn(StringToBytes(k), v)) return;
      }
      return;
    }
    tree_.ForEach(fn);
  }

  void ForEachMutable(const std::function<bool(const Bytes&, V&)>& fn) {
    if (use_hash_) {
      for (auto& [k, v] : hash_) {
        if (!fn(StringToBytes(k), v)) return;
      }
      return;
    }
    tree_.ForEachMutable(fn);
  }

  /// Lookup-comparison counter (tree backend only; 0 for hash).
  uint64_t comparisons() const { return use_hash_ ? 0 : tree_.comparisons(); }
  void ResetStats() { tree_.ResetStats(); }

  bool uses_hash_backend() const { return use_hash_; }

 private:
  bool use_hash_;
  index::BTreeMap<V> tree_;
  std::unordered_map<std::string, V> hash_;
};

}  // namespace sse::core

#endif  // SSE_CORE_TOKEN_MAP_H_
