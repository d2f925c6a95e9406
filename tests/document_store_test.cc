#include "sse/core/document_store.h"

#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "sse/baselines/cgko_sse1.h"
#include "sse/baselines/goh_zidx.h"
#include "sse/baselines/swp.h"
#include "sse/core/scheme1_server.h"
#include "sse/core/scheme2_server.h"
#include "sse/core/scheme3_server.h"
#include "sse/engine/scheme2_adapter.h"
#include "sse/engine/server_engine.h"
#include "test_util.h"

namespace sse {
namespace {

using ::sse::core::DocumentStore;
using ::sse::core::WireDocument;
using ::sse::testing::FastTestConfig;

std::vector<uint64_t> IdsOf(const std::vector<WireDocument>& docs) {
  std::vector<uint64_t> ids;
  for (const WireDocument& doc : docs) ids.push_back(doc.id);
  return ids;
}

TEST(DocumentStoreTest, PutReplacesThePreviousVersion) {
  DocumentStore store;
  store.Put(7, Bytes(100, 0));
  store.Put(7, Bytes{1, 2, 3});
  EXPECT_EQ(store.size(), 1u);
  const std::vector<WireDocument> got = store.Fetch({7});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 7u);
  EXPECT_EQ(got[0].ciphertext, (Bytes{1, 2, 3}));
}

TEST(DocumentStoreTest, PutListStoresInOrder) {
  DocumentStore store;
  store.Put({WireDocument{1, Bytes{0xa}}, WireDocument{2, Bytes{0xb}},
             WireDocument{1, Bytes{0xc}}});
  EXPECT_EQ(store.size(), 2u);
  const std::vector<WireDocument> got = store.Fetch({1});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].ciphertext, (Bytes{0xc}));  // the later duplicate wins
}

TEST(DocumentStoreTest, FetchKeepsInputOrderAndSkipsMissing) {
  DocumentStore store;
  store.Put(1, Bytes{0xa});
  store.Put(3, Bytes{0xb});
  EXPECT_EQ(IdsOf(store.Fetch({3, 2, 1, 4})), (std::vector<uint64_t>{3, 1}));
  EXPECT_TRUE(store.Fetch({}).empty());
}

TEST(DocumentStoreTest, SerializeWritesIdsAscendingAndReadRestores) {
  // The section as a Scheme 3 server with an empty index (one 0x00 byte)
  // writes it, after storing id 300 and then id 1.
  const core::SchemeOptions options = FastTestConfig().scheme;
  core::Scheme3Server server(options);
  core::S3UpdateRequest store;
  store.documents = {WireDocument{300, Bytes{0x5C}}, WireDocument{1, Bytes{}}};
  SSE_ASSERT_OK_RESULT(server.Handle(store.ToMessage()));
  auto state = server.SerializeState();
  SSE_ASSERT_OK_RESULT(state);
  ASSERT_FALSE(state->empty());
  EXPECT_EQ(state->front(), 0x00);
  const Bytes section(state->begin() + 1, state->end());
  EXPECT_EQ(section, (Bytes{0x02, 0x01, 0x00, 0xAC, 0x02, 0x01, 0x5C}));

  core::Scheme3Server restored(options);
  SSE_ASSERT_OK(restored.RestoreState(*state));
  EXPECT_EQ(restored.document_count(), 2u);
  auto reserialized = restored.SerializeState();
  SSE_ASSERT_OK_RESULT(reserialized);
  EXPECT_EQ(*reserialized, *state);

  const Bytes truncated(state->begin(), state->end() - 1);
  EXPECT_FALSE(restored.RestoreState(truncated).ok());
}

// Every server state (docs/PROTOCOL.md §4): the server's own sections,
// then the document section `count:varint (id:varint blob:bytes)*`, ids
// ascending; the engine's carries the document section after the "SENG"
// magic and shard count. The states below are written byte by byte, not by
// the code under test.

/// `n` bytes of `fill` behind their length, a varint of one or two bytes
/// (n < 2^14).
Bytes Blob(size_t n, uint8_t fill) {
  Bytes out;
  if (n < 0x80) {
    out.push_back(static_cast<uint8_t>(n));
  } else {
    out.push_back(static_cast<uint8_t>(0x80 | (n & 0x7f)));
    out.push_back(static_cast<uint8_t>(n >> 7));
  }
  out.insert(out.end(), n, fill);
  return out;
}

Bytes Cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Three documents: an empty blob, a short one, and one whose id and
/// length each take a two-byte varint.
Bytes HandcraftedDocumentSection() {
  Bytes section = {0x03,                     // count
                   0x01, 0x00,               // id 1, empty blob
                   0x07, 0x02, 0xAA, 0xBB,   // id 7, 2 bytes
                   0xAC, 0x02, 0x81, 0x01};  // id 300, 129 bytes ...
  section.insert(section.end(), 129, 0x5C);
  return section;
}

struct ServerLayout {
  std::string name;
  std::function<std::unique_ptr<core::PersistableHandler>()> make;
  Bytes before;  // the state's bytes ahead of the document section
  Bytes after;   // and behind it
};

// Each server's index sections, two keys (or list entries) apiece, keys
// ascending, one field at least 128 bytes long so its length takes a
// two-byte varint.

/// Scheme 1: count, then per token (token, I(w) ⊕ G(r), F(r)).
Bytes Scheme1Index(const Bytes& second_token) {
  return Cat({{0x02},
              Blob(1, 0x11), Blob(32, 0xA1), Blob(130, 0xB1),
              second_token, Blob(32, 0xA2), Blob(3, 0xB2)});
}

/// Scheme 2: count, then per token (token, segment count, then each
/// segment's (ciphertext, tag)).
Bytes Scheme2Index(const Bytes& second_token) {
  return Cat({{0x02},
              Blob(1, 0x21), {0x03},
              Blob(130, 0xC1), Blob(1, 0xD1),
              Blob(0, 0), Blob(2, 0xD2),
              Blob(4, 0xC3), Blob(0, 0),
              second_token, {0x01},
              Blob(5, 0xC4), Blob(1, 0xD4)});
}

/// Scheme 3: count, then per address f'(k_j) its ciphertext.
Bytes Scheme3Index(const Bytes& second_address) {
  return Cat({{0x02},
              Blob(32, 0x31), Blob(129, 0xE1),
              second_address, Blob(3, 0xE2)});
}

/// CGKO SSE-1: the node array A as a list, then the table T, per token its
/// masked (addr ‖ key).
Bytes CgkoIndex(const Bytes& second_token) {
  return Cat({{0x02}, Blob(60, 0x41), Blob(130, 0x42),
              {0x02},
              Blob(32, 0x51), Blob(36, 0x61),
              second_token, Blob(36, 0x62)});
}

std::vector<ServerLayout> ServerLayouts() {
  const core::SchemeOptions scheme = FastTestConfig().scheme;
  const baselines::GohOptions goh = FastTestConfig().goh;
  // An empty Scheme 2 shard: no keywords, no documents.
  const Bytes empty_shard = {0x02, 0x00, 0x00};
  Bytes engine_after = empty_shard;
  engine_after.insert(engine_after.end(), empty_shard.begin(),
                      empty_shard.end());
  return {
      {"Scheme1Server",
       [scheme] { return std::make_unique<core::Scheme1Server>(scheme); },
       Scheme1Index(Blob(2, 0x12)),
       {}},
      {"Scheme2Server",
       [scheme] { return std::make_unique<core::Scheme2Server>(scheme); },
       Scheme2Index(Blob(1, 0x22)),
       {}},
      {"Scheme3Server",
       [scheme] { return std::make_unique<core::Scheme3Server>(scheme); },
       Scheme3Index(Blob(32, 0x32)),
       {}},
      // SWP and Goh keep their per-document lists in arrival order, so
      // id 300 comes first.
      {"SwpServer", [] { return std::make_unique<baselines::SwpServer>(); },
       Cat({{0x02, 0xAC, 0x02}, Blob(64, 0xF1), {0x01}, Blob(32, 0xF2)}),
       {}},
      {"GohServer",
       [goh] { return std::make_unique<baselines::GohServer>(goh); },
       // Two 2048-bit filters.
       Cat({{0x02, 0xAC, 0x02}, Blob(256, 0x0F), {0x01}, Blob(256, 0xF0)}),
       {}},
      {"CgkoServer", [] { return std::make_unique<baselines::CgkoServer>(); },
       CgkoIndex(Blob(32, 0x52)),
       {}},
      {"ServerEngine",
       [scheme]() -> std::unique_ptr<core::PersistableHandler> {
         engine::EngineOptions options;
         options.num_shards = 2;
         return std::move(engine::ServerEngine::Create(
                              std::make_unique<engine::Scheme2Adapter>(scheme),
                              options))
             .value();
       },
       {0x47, 0x4E, 0x45, 0x53, 0x02},  // "SENG" magic (u32 LE), 2 shards
       engine_after},
  };
}

TEST(DocumentSectionTest, HandcraftedStateRoundTripsByteForByte) {
  const Bytes section = HandcraftedDocumentSection();
  for (const ServerLayout& layout : ServerLayouts()) {
    SCOPED_TRACE(layout.name);
    Bytes state = layout.before;
    state.insert(state.end(), section.begin(), section.end());
    state.insert(state.end(), layout.after.begin(), layout.after.end());

    std::unique_ptr<core::PersistableHandler> server = layout.make();
    SSE_ASSERT_OK(server->RestoreState(state));
    auto serialized = server->SerializeState();
    SSE_ASSERT_OK_RESULT(serialized);
    EXPECT_EQ(*serialized, state);
  }
}

TEST(DocumentSectionTest, TruncatedSectionIsRefusedAndStateKept) {
  const Bytes section = HandcraftedDocumentSection();
  for (const ServerLayout& layout : ServerLayouts()) {
    SCOPED_TRACE(layout.name);
    Bytes state = layout.before;
    state.insert(state.end(), section.begin(), section.end());
    state.insert(state.end(), layout.after.begin(), layout.after.end());
    std::unique_ptr<core::PersistableHandler> server = layout.make();
    SSE_ASSERT_OK(server->RestoreState(state));

    // Every cut of the whole state, the index sections included.
    for (size_t cut = 0; cut < state.size(); ++cut) {
      SCOPED_TRACE("state cut at byte " + std::to_string(cut));
      const Bytes truncated(state.begin(), state.begin() + cut);
      EXPECT_FALSE(server->RestoreState(truncated).ok());
      auto kept = server->SerializeState();
      SSE_ASSERT_OK_RESULT(kept);
      EXPECT_EQ(*kept, state);
    }
  }
}

TEST(DocumentSectionTest, RepeatedKeyIsRefusedAndStateKept) {
  // A state that lists one token (Scheme 3: one address) twice is corrupt:
  // a writer lists each key once, ascending. Restoring it must not count
  // the repeated entry twice in stored_index_bytes().
  const core::SchemeOptions scheme = FastTestConfig().scheme;
  struct Repeated {
    std::string name;
    std::unique_ptr<core::PersistableHandler> server;
    Bytes good;
    Bytes repeated;
  };
  const Bytes no_documents = {0x00};
  Repeated cases[] = {
      {"Scheme1Server", std::make_unique<core::Scheme1Server>(scheme),
       Cat({Scheme1Index(Blob(2, 0x12)), no_documents}),
       Cat({Scheme1Index(Blob(1, 0x11)), no_documents})},
      {"Scheme2Server", std::make_unique<core::Scheme2Server>(scheme),
       Cat({Scheme2Index(Blob(1, 0x22)), no_documents}),
       Cat({Scheme2Index(Blob(1, 0x21)), no_documents})},
      {"Scheme3Server", std::make_unique<core::Scheme3Server>(scheme),
       Cat({Scheme3Index(Blob(32, 0x32)), no_documents}),
       Cat({Scheme3Index(Blob(32, 0x31)), no_documents})},
      {"CgkoServer", std::make_unique<baselines::CgkoServer>(),
       Cat({CgkoIndex(Blob(32, 0x52)), no_documents}),
       Cat({CgkoIndex(Blob(32, 0x51)), no_documents})},
  };
  for (Repeated& c : cases) {
    SCOPED_TRACE(c.name);
    SSE_ASSERT_OK(c.server->RestoreState(c.good));
    const Status status = c.server->RestoreState(c.repeated);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    auto kept = c.server->SerializeState();
    SSE_ASSERT_OK_RESULT(kept);
    EXPECT_EQ(*kept, c.good);
  }
}

}  // namespace
}  // namespace sse
