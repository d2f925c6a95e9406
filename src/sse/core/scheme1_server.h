#ifndef SSE_CORE_SCHEME1_SERVER_H_
#define SSE_CORE_SCHEME1_SERVER_H_

#include <cstdint>

#include "sse/core/document_store.h"
#include "sse/core/options.h"
#include "sse/core/persistable.h"
#include "sse/core/scheme1_messages.h"
#include "sse/index/btree.h"

namespace sse::core {

/// The honest-but-curious server of Scheme 1.
///
/// Per unique keyword it stores the paper's triple
///   S(w) = (f_{k_w}(w),  I(w) ⊕ G(r),  F(r))
/// keyed by the first component in a B+-tree. The server never sees a
/// plaintext bitmap during updates — it only XORs client-supplied deltas —
/// and during a search it unmasks exactly the one bitmap whose nonce the
/// client released (the access-pattern leakage the trace permits).
class Scheme1Server : public PersistableHandler {
 public:
  explicit Scheme1Server(const SchemeOptions& options);

  Result<net::Message> Handle(const net::Message& request) override;

  Result<Bytes> SerializeState() const override;
  Status RestoreState(BytesView data) override;
  bool IsMutating(uint16_t msg_type) const override;

  /// Number of unique keywords stored (u in the paper).
  size_t unique_keywords() const { return index_.size(); }
  size_t document_count() const { return docs_.size(); }
  uint64_t stored_index_bytes() const { return index_bytes_; }

  /// Lookup comparisons performed by the token tree (for T1-search).
  uint64_t index_comparisons() const { return index_.comparisons(); }

 private:
  struct Entry {
    Bytes masked_bitmap;  // I(w) ⊕ G(r)
    Bytes enc_nonce;      // F(r)
  };

  Result<net::Message> HandleNonceRequest(const net::Message& msg);
  Result<net::Message> HandleUpdate(const net::Message& msg);
  Result<net::Message> HandleSearchRequest(const net::Message& msg);
  Result<net::Message> HandleSearchFinish(const net::Message& msg);

  SchemeOptions options_;
  index::BTreeMap<Entry> index_;
  DocumentStore docs_;
  uint64_t index_bytes_ = 0;
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME1_SERVER_H_
