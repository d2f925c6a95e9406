#include "sse/crypto/prf.h"

#include "sse/crypto/kernel.h"
#include "sse/obs/metrics_registry.h"

namespace sse::crypto {

Result<Bytes> HmacSha256(BytesView key, BytesView data) {
  // One relaxed load when timing is off (the default) — the gate keeps
  // per-op instrumentation out of the search hot path's budget.
  obs::ScopedCryptoTimer timer(obs::CryptoTimers::Global().prf);
  Sha256Digest mac;
  SSE_RETURN_IF_ERROR(kernel::HmacSha256(key, data, mac));
  return ToBytes(mac);
}

Result<Prf> Prf::Create(BytesView key) {
  if (key.size() < 16) {
    return Status::InvalidArgument("PRF key must be at least 16 bytes");
  }
  return Prf(ToBytes(key));
}

Result<Bytes> Prf::Eval(BytesView input) const { return HmacSha256(key_, input); }

Result<Bytes> Prf::Eval(std::string_view input) const {
  return Eval(StringToBytes(input));
}

Result<Bytes> Prf::EvalLabeled(std::string_view label, BytesView input) const {
  Bytes msg = StringToBytes(label);
  msg.push_back(0x00);
  msg.insert(msg.end(), input.begin(), input.end());
  return HmacSha256(key_, msg);
}

}  // namespace sse::crypto
