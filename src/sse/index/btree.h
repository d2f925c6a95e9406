#ifndef SSE_INDEX_BTREE_H_
#define SSE_INDEX_BTREE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sse/util/bytes.h"

namespace sse::index {

/// In-memory B+-tree mapping byte-string keys to values of type `V`.
///
/// This is the "tree structure for the searchable representations" the paper
/// assumes in §5.1: the server keys every `S(w)` entry by the 32-byte PRF
/// token `f_{k_w}(w)`, and a search costs one root-to-leaf descent —
/// `O(log u)` comparisons in the number `u` of unique keywords.
///
/// The tree tracks a comparison counter so the Table 1 benches can report
/// the paper's complexity claim directly (comparisons per lookup vs. `u`)
/// independent of wall-clock noise.
///
/// Writes require exclusive access; concurrent const reads are safe (the
/// comparison counter is atomic). The engine enforces this with per-shard
/// reader-writer locks.
template <typename V>
class BTreeMap {
 public:
  using key_type = Bytes;
  using mapped_type = V;

  /// `order` = max children per internal node (max keys per leaf). 8..1024.
  explicit BTreeMap(size_t order = 64)
      : order_(order < 8 ? 8 : (order > 1024 ? 1024 : order)) {
    root_ = std::make_unique<Node>(/*leaf=*/true);
  }

  BTreeMap(const BTreeMap&) = delete;
  BTreeMap& operator=(const BTreeMap&) = delete;
  // Moves are hand-written because the atomic counter is not movable.
  // Moving concurrently with readers is not supported (the engine swaps
  // trees only under an exclusive shard lock).
  BTreeMap(BTreeMap&& other) noexcept
      : order_(other.order_),
        root_(std::move(other.root_)),
        size_(other.size_),
        comparisons_(other.comparisons_.load(std::memory_order_relaxed)) {
    other.root_ = std::make_unique<Node>(/*leaf=*/true);
    other.size_ = 0;
  }
  BTreeMap& operator=(BTreeMap&& other) noexcept {
    if (this != &other) {
      order_ = other.order_;
      root_ = std::move(other.root_);
      size_ = other.size_;
      comparisons_.store(other.comparisons_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      other.root_ = std::make_unique<Node>(/*leaf=*/true);
      other.size_ = 0;
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts `value` under `key`, replacing any existing value.
  /// Returns true if the key was new.
  bool Put(BytesView key, V value) {
    InsertResult r = InsertRecursive(root_.get(), key, std::move(value));
    if (r.split) {
      auto new_root = std::make_unique<Node>(/*leaf=*/false);
      new_root->keys.push_back(std::move(r.split_key));
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(r.right));
      root_ = std::move(new_root);
    }
    if (r.inserted) ++size_;
    return r.inserted;
  }

  /// Returns a pointer to the value for `key`, or nullptr.
  const V* Get(BytesView key) const {
    const Node* node = root_.get();
    while (!node->leaf) {
      node = node->children[ChildIndex(node, key)].get();
    }
    const size_t i = LowerBound(node, key);
    if (i < node->keys.size() && Equal(node->keys[i], key)) {
      return &node->values[i];
    }
    return nullptr;
  }

  V* GetMutable(BytesView key) {
    return const_cast<V*>(static_cast<const BTreeMap*>(this)->Get(key));
  }

  bool Contains(BytesView key) const { return Get(key) != nullptr; }

  /// Removes `key`. Returns true if it was present. Uses lazy deletion at
  /// the leaf (no rebalancing); fine for our workloads where deletions are
  /// rare relative to inserts, and keeps lookups correct regardless.
  bool Erase(BytesView key) {
    Node* node = root_.get();
    while (!node->leaf) {
      node = node->children[ChildIndex(node, key)].get();
    }
    const size_t i = LowerBound(node, key);
    if (i < node->keys.size() && Equal(node->keys[i], key)) {
      node->keys.erase(node->keys.begin() + i);
      node->values.erase(node->values.begin() + i);
      --size_;
      return true;
    }
    return false;
  }

  void Clear() {
    root_ = std::make_unique<Node>(/*leaf=*/true);
    size_ = 0;
  }

  /// In-order visit of all (key, value) pairs. `fn` returning false stops
  /// the scan early.
  void ForEach(const std::function<bool(const Bytes&, const V&)>& fn) const {
    const Node* leaf = LeftmostLeaf();
    while (leaf != nullptr) {
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        if (!fn(leaf->keys[i], leaf->values[i])) return;
      }
      leaf = leaf->next;
    }
  }

  /// Mutable variant of ForEach.
  void ForEachMutable(const std::function<bool(const Bytes&, V&)>& fn) {
    Node* leaf = LeftmostLeafMutable();
    while (leaf != nullptr) {
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        if (!fn(leaf->keys[i], leaf->values[i])) return;
      }
      leaf = leaf->next;
    }
  }

  /// Height of the tree (1 for a lone leaf).
  size_t Height() const {
    size_t h = 1;
    const Node* node = root_.get();
    while (!node->leaf) {
      ++h;
      node = node->children[0].get();
    }
    return h;
  }

  /// Key comparisons performed since the last ResetStats().
  uint64_t comparisons() const {
    return comparisons_.load(std::memory_order_relaxed);
  }
  void ResetStats() { comparisons_.store(0, std::memory_order_relaxed); }

 private:
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    bool leaf;
    std::vector<Bytes> keys;
    // Internal nodes: children.size() == keys.size() + 1.
    std::vector<std::unique_ptr<Node>> children;
    // Leaves only:
    std::vector<V> values;
    Node* next = nullptr;  // leaf chain for in-order scans
  };

  struct InsertResult {
    bool inserted = false;
    bool split = false;
    Bytes split_key;
    std::unique_ptr<Node> right;
  };

  bool Equal(const Bytes& a, BytesView b) const {
    BumpComparisons();
    return Compare(a, b) == 0;
  }

  /// First index i with keys[i] >= key (binary search).
  size_t LowerBound(const Node* node, BytesView key) const {
    size_t lo = 0;
    size_t hi = node->keys.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      BumpComparisons();
      if (Compare(node->keys[mid], key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Child to descend into for `key` in an internal node. Separator keys
  /// satisfy: child i holds keys < keys[i]; child i+1 holds keys >= keys[i].
  size_t ChildIndex(const Node* node, BytesView key) const {
    size_t lo = 0;
    size_t hi = node->keys.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      BumpComparisons();
      if (Compare(key, node->keys[mid]) < 0) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  InsertResult InsertRecursive(Node* node, BytesView key, V value) {
    InsertResult result;
    if (node->leaf) {
      const size_t i = LowerBound(node, key);
      if (i < node->keys.size() && Equal(node->keys[i], key)) {
        node->values[i] = std::move(value);
        return result;  // replaced, no structural change
      }
      node->keys.insert(node->keys.begin() + i, ToBytes(key));
      node->values.insert(node->values.begin() + i, std::move(value));
      result.inserted = true;
      if (node->keys.size() >= order_) SplitLeaf(node, result);
      return result;
    }
    const size_t ci = ChildIndex(node, key);
    InsertResult child = InsertRecursive(node->children[ci].get(), key,
                                         std::move(value));
    result.inserted = child.inserted;
    if (child.split) {
      node->keys.insert(node->keys.begin() + ci, std::move(child.split_key));
      node->children.insert(node->children.begin() + ci + 1,
                            std::move(child.right));
      if (node->keys.size() >= order_) SplitInternal(node, result);
    }
    return result;
  }

  void SplitLeaf(Node* node, InsertResult& result) {
    const size_t mid = node->keys.size() / 2;
    auto right = std::make_unique<Node>(/*leaf=*/true);
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid),
                       std::make_move_iterator(node->keys.end()));
    right->values.assign(std::make_move_iterator(node->values.begin() + mid),
                         std::make_move_iterator(node->values.end()));
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next = node->next;
    node->next = right.get();
    result.split = true;
    result.split_key = right->keys.front();  // copy: separator = first right key
    result.right = std::move(right);
  }

  void SplitInternal(Node* node, InsertResult& result) {
    const size_t mid = node->keys.size() / 2;
    auto right = std::make_unique<Node>(/*leaf=*/false);
    // Middle key moves up; keys after it and children after mid move right.
    result.split_key = std::move(node->keys[mid]);
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid + 1),
                       std::make_move_iterator(node->keys.end()));
    right->children.assign(
        std::make_move_iterator(node->children.begin() + mid + 1),
        std::make_move_iterator(node->children.end()));
    node->keys.resize(mid);
    node->children.resize(mid + 1);
    result.split = true;
    result.right = std::move(right);
  }

  const Node* LeftmostLeaf() const {
    const Node* node = root_.get();
    while (!node->leaf) node = node->children[0].get();
    return node;
  }

  Node* LeftmostLeafMutable() {
    Node* node = root_.get();
    while (!node->leaf) node = node->children[0].get();
    return node;
  }

  size_t order_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  // Atomic so concurrent readers (const Get under a shared lock in the
  // engine) can keep counting without a data race; relaxed is enough for a
  // statistics counter.
  void BumpComparisons() const {
    comparisons_.fetch_add(1, std::memory_order_relaxed);
  }

  mutable std::atomic<uint64_t> comparisons_{0};
};

}  // namespace sse::index

#endif  // SSE_INDEX_BTREE_H_
