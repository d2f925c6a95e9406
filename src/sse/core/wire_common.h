#ifndef SSE_CORE_WIRE_COMMON_H_
#define SSE_CORE_WIRE_COMMON_H_

#include <cstdint>
#include <tuple>

#include "sse/util/bytes.h"

namespace sse::core {

/// An encrypted document on the wire: (E_{k_m}(M_i), i), encoded as
/// varint id ‖ bytes ciphertext (sse/net/wire.h).
struct WireDocument {
  uint64_t id = 0;
  Bytes ciphertext;

  static constexpr auto kFields =
      std::tuple{&WireDocument::id, &WireDocument::ciphertext};
};

}  // namespace sse::core

#endif  // SSE_CORE_WIRE_COMMON_H_
