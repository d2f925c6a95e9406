#ifndef SSE_CORE_SCHEME_DESCRIPTOR_H_
#define SSE_CORE_SCHEME_DESCRIPTOR_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "sse/baselines/goh_zidx.h"
#include "sse/core/options.h"
#include "sse/core/persistable.h"
#include "sse/core/types.h"
#include "sse/crypto/keys.h"
#include "sse/net/channel.h"
#include "sse/net/retry.h"
#include "sse/util/random.h"

namespace sse::engine {
class SchemeAdapter;  // engine/scheme_shard.h; kept opaque at this layer
}

namespace sse::core {

/// Every searchable-encryption system this library implements. The enum is
/// the stable identifier (persisted nowhere, but used in test parameter
/// names and CLI flags); everything else about a scheme — its name, its
/// capabilities, how to build its client/server/engine-adapter — lives in
/// the SchemeDescriptor registered for the kind.
enum class SystemKind : int {
  kScheme1 = 0,   // the paper's computationally efficient scheme (§5.2)
  kScheme2 = 1,   // the paper's communication efficient scheme (§5.5)
  kSwp = 2,       // Song-Wagner-Perrig linear scan baseline
  kGohZidx = 3,   // Goh Z-IDX per-document Bloom filter baseline
  kCgkoSse1 = 4,  // Curtmola et al. SSE-1 inverted index baseline
  kScheme3 = 5,   // forward-private dynamic SSE (Etemad–Küpçü style)
};

std::string_view SystemKindName(SystemKind kind);
Result<SystemKind> SystemKindFromName(std::string_view name);
std::vector<SystemKind> AllSystemKinds();

struct SystemConfig {
  SchemeOptions scheme;
  baselines::GohOptions goh;
  net::InProcessChannel::Options channel;

  /// When > 0, engine-capable schemes (see SchemeTraits) are built as a
  /// sharded engine::ServerEngine with this many shards (thread-safe
  /// Handle, concurrent searches). 0 keeps the classic single-threaded
  /// server. Baselines do not support engine mode.
  size_t engine_shards = 0;
  /// Worker threads for the engine's scatter pool (0 = one per shard).
  size_t engine_workers = 0;

  /// Wrap the client side in a net::RetryingChannel: every call is
  /// session-stamped and transparently retried with backoff under a
  /// deadline. Pair with a server-side reply cache for exactly-once.
  bool with_retry = false;
  net::RetryOptions retry;

  /// At-most-once dedup on engine-backed servers (ignored for the classic
  /// single-threaded servers, which have no reply cache).
  bool engine_reply_cache = true;
};

/// Capabilities a scheme declares so generic call-sites (registry, CLI,
/// parameterized tests, benches) can decide what to exercise without
/// enumerating kinds.
struct SchemeTraits {
  /// Has a sharding adapter: can run behind engine::ServerEngine (and so
  /// behind the full durable/replicated/batched server stack).
  bool engine_capable = false;
  /// Updates after a search are unlinkable to previously released
  /// trapdoors (forward privacy).
  bool forward_private = false;
  /// Clients keep protocol state that must persist across sessions
  /// (SerializeState returns a non-empty, meaningful blob).
  bool stateful_client = false;
};

/// One scheme's registration: identity, capabilities, and the three
/// factories every call-site needs. Adding a scheme means adding one
/// descriptor to the table in scheme_registry.cc — the registry, engine
/// wiring, CLI, benches and parameterized tests all pick it up from there.
struct SchemeDescriptor {
  SystemKind kind{};
  std::string_view name;
  /// One-line human description for CLI listings and status output.
  std::string_view summary;
  SchemeTraits traits;

  /// Classic single-threaded server.
  std::function<Result<std::unique_ptr<PersistableHandler>>(
      const SystemConfig&)>
      make_server;

  /// Sharding adapter for engine mode; null unless traits.engine_capable.
  std::function<std::unique_ptr<engine::SchemeAdapter>(const SystemConfig&)>
      make_adapter;

  std::function<Result<std::unique_ptr<SseClientInterface>>(
      const crypto::MasterKey&, const SystemConfig&, net::Channel*,
      RandomSource*)>
      make_client;
};

/// Descriptor lookup. Pointers are to process-lifetime storage; nullptr
/// when the kind/name is not registered.
const SchemeDescriptor* FindScheme(SystemKind kind);
const SchemeDescriptor* FindScheme(std::string_view name);

/// All registered schemes, in SystemKind order.
const std::vector<SchemeDescriptor>& AllSchemes();

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME_DESCRIPTOR_H_
