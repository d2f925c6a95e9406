#include "sse/core/registry.h"

#include <string>

#include "sse/engine/scheme_shard.h"
#include "sse/engine/server_engine.h"

namespace sse::core {

namespace {

// Scheme-agnostic: the descriptor supplies the adapter, the engine wraps
// it. Any scheme whose descriptor registers an adapter inherits sharding,
// the reply cache and the shared document store.
Result<std::unique_ptr<PersistableHandler>> CreateEngineServer(
    const SchemeDescriptor& desc, const SystemConfig& config) {
  if (!desc.traits.engine_capable || desc.make_adapter == nullptr) {
    return Status::InvalidArgument(
        "engine mode (engine_shards > 0) is not supported by " +
        std::string(desc.name));
  }
  std::unique_ptr<engine::SchemeAdapter> adapter = desc.make_adapter(config);
  engine::EngineOptions opts;
  opts.num_shards = config.engine_shards;
  opts.enable_reply_cache = config.engine_reply_cache;
  Result<std::unique_ptr<engine::ServerEngine>> eng =
      engine::ServerEngine::Create(std::move(adapter), opts);
  if (!eng.ok()) return eng.status();
  return std::unique_ptr<PersistableHandler>(std::move(eng).value());
}

}  // namespace

Result<SseSystem> CreateSystem(SystemKind kind, const crypto::MasterKey& key,
                               const SystemConfig& config, RandomSource* rng) {
  const SchemeDescriptor* desc = FindScheme(kind);
  if (desc == nullptr) {
    return Status::InvalidArgument("unknown system kind");
  }

  SseSystem sys;
  if (config.engine_shards > 0) {
    SSE_ASSIGN_OR_RETURN(sys.server, CreateEngineServer(*desc, config));
  } else {
    SSE_ASSIGN_OR_RETURN(sys.server, desc->make_server(config));
  }

  sys.channel = std::make_unique<net::InProcessChannel>(sys.server.get(),
                                                        config.channel);
  net::Channel* client_channel = sys.channel.get();
  if (config.with_retry) {
    sys.retry =
        std::make_unique<net::RetryingChannel>(sys.channel.get(), config.retry,
                                               rng);
    client_channel = sys.retry.get();
  }

  SSE_ASSIGN_OR_RETURN(sys.client,
                       desc->make_client(key, config, client_channel, rng));
  return sys;
}

}  // namespace sse::core
