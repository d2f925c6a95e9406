#ifndef SSE_STORAGE_DOCUMENT_STORE_H_
#define SSE_STORAGE_DOCUMENT_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::storage {

/// Server-side store for the encrypted data items: the tuples
/// `(E_{k_m}(M_i), i)` of the paper's DataStorage sub-algorithm. The server
/// only ever sees opaque ciphertext; this container indexes it by the
/// client-chosen document identifier. Blobs live in memory; DurableServer
/// makes them durable as part of the server state (WAL records and
/// snapshots).
class DocumentStore {
 public:
  /// Stores `ciphertext` under `id`, replacing any previous version.
  void Put(uint64_t id, Bytes ciphertext);

  /// Returns the ciphertext for `id` or NOT_FOUND.
  Result<Bytes> Get(uint64_t id) const;

  bool Contains(uint64_t id) const;

  /// Fetches all present ids from `ids`, skipping absent ones (a search
  /// may return ids whose documents were deleted later; the protocol
  /// tolerates that). Output pairs are (id, ciphertext), input order.
  std::vector<std::pair<uint64_t, Bytes>> GetMany(
      const std::vector<uint64_t>& ids) const;

  size_t size() const { return docs_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }

  /// Visits every (id, ciphertext) in ascending id order. The callback
  /// returning false stops the scan.
  void ForEach(const std::function<bool(uint64_t, const Bytes&)>& fn) const;

 private:
  std::map<uint64_t, Bytes> docs_;
  uint64_t total_bytes_ = 0;
};

}  // namespace sse::storage

#endif  // SSE_STORAGE_DOCUMENT_STORE_H_
