#ifndef SSE_CORE_SCHEME1_SERVER_H_
#define SSE_CORE_SCHEME1_SERVER_H_

#include <cstdint>
#include <tuple>

#include "sse/core/options.h"
#include "sse/core/persistable.h"
#include "sse/core/scheme1_messages.h"

namespace sse::core {

/// S(w) less its token, which keys it in the tree.
struct S1IndexEntry {
  Bytes masked_bitmap;  // I(w) ⊕ G(r)
  Bytes enc_nonce;      // F(r)

  static constexpr auto kFields =
      std::tuple{&S1IndexEntry::masked_bitmap, &S1IndexEntry::enc_nonce};
};

/// The honest-but-curious server of Scheme 1.
///
/// Per unique keyword it stores the paper's triple
///   S(w) = (f_{k_w}(w),  I(w) ⊕ G(r),  F(r))
/// keyed by the first component in a B+-tree. The server never sees a
/// plaintext bitmap during updates — it only XORs client-supplied deltas —
/// and during a search it unmasks exactly the one bitmap whose nonce the
/// client released (the access-pattern leakage the trace permits).
class Scheme1Server : public TokenIndexServer<S1IndexEntry> {
 public:
  explicit Scheme1Server(const SchemeOptions& options);

  Result<net::Message> Handle(const net::Message& request) override;
  bool IsMutating(uint16_t msg_type) const override;

 private:
  Result<net::Message> HandleNonceRequest(const net::Message& msg);
  Result<net::Message> HandleUpdate(const net::Message& msg);
  Result<net::Message> HandleSearchRequest(const net::Message& msg);
  Result<net::Message> HandleSearchFinish(const net::Message& msg);
  uint64_t IndexBytes(const Bytes& token,
                      const S1IndexEntry& entry) const override;

  SchemeOptions options_;
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME1_SERVER_H_
