#ifndef SSE_CORE_DOCUMENT_STORE_H_
#define SSE_CORE_DOCUMENT_STORE_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "sse/core/wire_common.h"
#include "sse/util/bytes.h"

namespace sse::core {

/// Server-side store for the encrypted data items: the tuples
/// `(E_{k_m}(M_i), i)` of the paper's DataStorage sub-algorithm. The server
/// only ever sees opaque ciphertext; this container indexes it by the
/// client-chosen document identifier. It is the one owner of a server's
/// documents: every scheme server, baseline and the sharded engine stores
/// them here, fetches a reply's documents from here, and carries it as the
/// document section of its state (sse/net/wire.h). Blobs live in memory;
/// DurableServer makes them durable as part of the server state (WAL
/// records and snapshots).
class DocumentStore {
 public:
  /// Stores `ciphertext` under `id`, replacing any previous version.
  void Put(uint64_t id, Bytes ciphertext);
  /// Stores each of `docs` in order (a later duplicate id wins).
  void Put(std::vector<WireDocument> docs);

  /// The documents of the present ids in `ids`, in input order, absent
  /// ids skipped (a search may return ids whose documents were never
  /// stored; the protocol tolerates that). Copies each blob once.
  std::vector<WireDocument> Fetch(const std::vector<uint64_t>& ids) const;

  size_t size() const { return docs_.size(); }

 private:
  std::map<uint64_t, Bytes> docs_;

 public:
  /// The document section every server state carries (docs/PROTOCOL.md
  /// §4): `count:varint (id:varint blob:bytes)*`, ids ascending.
  static constexpr auto kFields = std::tuple{&DocumentStore::docs_};
};

}  // namespace sse::core

#endif  // SSE_CORE_DOCUMENT_STORE_H_
