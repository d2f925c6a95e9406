// The single scheme registration point. Every per-scheme factory the rest
// of the stack needs — classic server, engine adapter, client — lives in
// this table; registry.cc, the CLI tools, benches and parameterized tests
// all dispatch through FindScheme/AllSchemes instead of enumerating kinds.
// Adding a scheme means adding one descriptor here.

#include "sse/core/scheme_descriptor.h"

#include <string>

#include "sse/baselines/cgko_sse1.h"
#include "sse/baselines/swp.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme1_server.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_server.h"
#include "sse/core/scheme3_client.h"
#include "sse/core/scheme3_server.h"
#include "sse/engine/scheme1_adapter.h"
#include "sse/engine/scheme2_adapter.h"
#include "sse/engine/scheme3_adapter.h"

namespace sse::core {

namespace {

/// Builds a classic single-threaded paper-scheme server.
template <typename Server>
Result<std::unique_ptr<PersistableHandler>> MakeClassicServer(
    const SystemConfig& config) {
  return std::unique_ptr<PersistableHandler>(
      std::make_unique<Server>(config.scheme));
}

/// Adapts a scheme client's Create(key, options, channel, rng) factory to
/// the descriptor signature.
template <typename Client>
Result<std::unique_ptr<SseClientInterface>> MakeSchemeClient(
    const crypto::MasterKey& key, const SystemConfig& config,
    net::Channel* channel, RandomSource* rng) {
  Result<std::unique_ptr<Client>> client =
      Client::Create(key, config.scheme, channel, rng);
  if (!client.ok()) return client.status();
  return std::unique_ptr<SseClientInterface>(std::move(client).value());
}

std::vector<SchemeDescriptor> BuildTable() {
  std::vector<SchemeDescriptor> table;

  {
    SchemeDescriptor d;
    d.kind = SystemKind::kScheme1;
    d.name = "scheme1";
    d.summary =
        "paper §5.2: XOR-masked posting bitmaps, hashed-ElGamal nonces, "
        "2-round search";
    d.traits.engine_capable = true;
    d.traits.stateful_client = true;
    d.make_server = MakeClassicServer<Scheme1Server>;
    d.make_adapter = [](const SystemConfig& config) {
      return std::unique_ptr<engine::SchemeAdapter>(
          std::make_unique<engine::Scheme1Adapter>(config.scheme));
    };
    d.make_client = MakeSchemeClient<Scheme1Client>;
    table.push_back(std::move(d));
  }

  {
    SchemeDescriptor d;
    d.kind = SystemKind::kScheme2;
    d.name = "scheme2";
    d.summary =
        "paper §5.5: per-update encrypted posting segments keyed off a "
        "Lamport hash chain, 1-round search";
    d.traits.engine_capable = true;
    d.traits.stateful_client = true;
    d.make_server = MakeClassicServer<Scheme2Server>;
    d.make_adapter = [](const SystemConfig& config) {
      return std::unique_ptr<engine::SchemeAdapter>(
          std::make_unique<engine::Scheme2Adapter>(config.scheme));
    };
    d.make_client = MakeSchemeClient<Scheme2Client>;
    table.push_back(std::move(d));
  }

  {
    SchemeDescriptor d;
    d.kind = SystemKind::kSwp;
    d.name = "swp";
    d.summary = "Song-Wagner-Perrig sequential-scan baseline";
    d.make_server = [](const SystemConfig&) {
      return Result<std::unique_ptr<PersistableHandler>>(
          std::make_unique<baselines::SwpServer>());
    };
    d.make_client = [](const crypto::MasterKey& key, const SystemConfig&,
                       net::Channel* channel, RandomSource* rng)
        -> Result<std::unique_ptr<SseClientInterface>> {
      Result<std::unique_ptr<baselines::SwpClient>> client =
          baselines::SwpClient::Create(key, channel, rng);
      if (!client.ok()) return client.status();
      return std::unique_ptr<SseClientInterface>(std::move(client).value());
    };
    table.push_back(std::move(d));
  }

  {
    SchemeDescriptor d;
    d.kind = SystemKind::kGohZidx;
    d.name = "goh-zidx";
    d.summary = "Goh Z-IDX per-document Bloom filter baseline";
    d.make_server = [](const SystemConfig& config) {
      return Result<std::unique_ptr<PersistableHandler>>(
          std::make_unique<baselines::GohServer>(config.goh));
    };
    d.make_client = [](const crypto::MasterKey& key,
                       const SystemConfig& config, net::Channel* channel,
                       RandomSource* rng)
        -> Result<std::unique_ptr<SseClientInterface>> {
      Result<std::unique_ptr<baselines::GohClient>> client =
          baselines::GohClient::Create(key, config.goh, channel, rng);
      if (!client.ok()) return client.status();
      return std::unique_ptr<SseClientInterface>(std::move(client).value());
    };
    table.push_back(std::move(d));
  }

  {
    SchemeDescriptor d;
    d.kind = SystemKind::kCgkoSse1;
    d.name = "cgko-sse1";
    d.summary = "Curtmola et al. SSE-1 inverted-index baseline";
    d.make_server = [](const SystemConfig&) {
      return Result<std::unique_ptr<PersistableHandler>>(
          std::make_unique<baselines::CgkoServer>());
    };
    d.make_client = [](const crypto::MasterKey& key, const SystemConfig&,
                       net::Channel* channel, RandomSource* rng)
        -> Result<std::unique_ptr<SseClientInterface>> {
      Result<std::unique_ptr<baselines::CgkoClient>> client =
          baselines::CgkoClient::Create(key, channel, rng);
      if (!client.ok()) return client.status();
      return std::unique_ptr<SseClientInterface>(std::move(client).value());
    };
    table.push_back(std::move(d));
  }

  {
    SchemeDescriptor d;
    d.kind = SystemKind::kScheme3;
    d.name = "scheme3";
    d.summary =
        "forward-private dynamic SSE: per-update hash-chain keys, "
        "unlinkable update addresses, client-held counters";
    d.traits.engine_capable = true;
    d.traits.forward_private = true;
    d.traits.stateful_client = true;
    d.make_server = MakeClassicServer<Scheme3Server>;
    d.make_adapter = [](const SystemConfig& config) {
      return std::unique_ptr<engine::SchemeAdapter>(
          std::make_unique<engine::Scheme3Adapter>(config.scheme));
    };
    d.make_client = MakeSchemeClient<Scheme3Client>;
    table.push_back(std::move(d));
  }

  return table;
}

}  // namespace

const std::vector<SchemeDescriptor>& AllSchemes() {
  static const std::vector<SchemeDescriptor>* table =
      new std::vector<SchemeDescriptor>(BuildTable());
  return *table;
}

const SchemeDescriptor* FindScheme(SystemKind kind) {
  for (const SchemeDescriptor& d : AllSchemes()) {
    if (d.kind == kind) return &d;
  }
  return nullptr;
}

const SchemeDescriptor* FindScheme(std::string_view name) {
  for (const SchemeDescriptor& d : AllSchemes()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::string_view SystemKindName(SystemKind kind) {
  const SchemeDescriptor* d = FindScheme(kind);
  return d != nullptr ? d->name : "unknown";
}

Result<SystemKind> SystemKindFromName(std::string_view name) {
  const SchemeDescriptor* d = FindScheme(name);
  if (d == nullptr) {
    return Status::InvalidArgument("unknown system name: " +
                                   std::string(name));
  }
  return d->kind;
}

std::vector<SystemKind> AllSystemKinds() {
  std::vector<SystemKind> kinds;
  kinds.reserve(AllSchemes().size());
  for (const SchemeDescriptor& d : AllSchemes()) kinds.push_back(d.kind);
  return kinds;
}

}  // namespace sse::core
