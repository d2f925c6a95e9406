#include "sse/core/document_store.h"

#include <gtest/gtest.h>

#include <functional>
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
  DocumentStore store;
  store.Put(300, Bytes{0x5C});
  store.Put(1, Bytes{});
  BufferWriter w;
  store.Serialize(w);
  const Bytes section = w.TakeData();
  EXPECT_EQ(section, (Bytes{0x02, 0x01, 0x00, 0xAC, 0x02, 0x01, 0x5C}));

  BufferReader r(section);
  auto restored = DocumentStore::Read(r);
  SSE_ASSERT_OK_RESULT(restored);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored->size(), 2u);
  EXPECT_EQ(IdsOf(restored->Fetch({1, 300})), (std::vector<uint64_t>{1, 300}));

  BufferReader truncated(BytesView(section.data(), section.size() - 1));
  EXPECT_FALSE(DocumentStore::Read(truncated).ok());
}

// The document section of every server state (docs/PROTOCOL.md §4):
// `count:varint (id:varint blob:bytes)*`, ids ascending, after the index in
// a scheme server's state and after the "SENG" magic and shard count in the
// engine's. The states below are written byte by byte, not by the code
// under test.

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
       {0x00},  // no keywords
       {}},
      {"Scheme2Server",
       [scheme] { return std::make_unique<core::Scheme2Server>(scheme); },
       {0x00},
       {}},
      {"Scheme3Server",
       [scheme] { return std::make_unique<core::Scheme3Server>(scheme); },
       {0x00},  // no index entries
       {}},
      {"SwpServer", [] { return std::make_unique<baselines::SwpServer>(); },
       {0x00},  // no word blocks
       {}},
      {"GohServer",
       [goh] { return std::make_unique<baselines::GohServer>(goh); },
       {0x00},  // no filters
       {}},
      {"CgkoServer", [] { return std::make_unique<baselines::CgkoServer>(); },
       {0x00, 0x00},  // empty array A, empty table T
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

    // Every cut that ends the state inside the document section.
    for (size_t cut = 0; cut < section.size(); ++cut) {
      SCOPED_TRACE("section cut at byte " + std::to_string(cut));
      const Bytes truncated(state.begin(),
                            state.begin() + layout.before.size() + cut);
      EXPECT_FALSE(server->RestoreState(truncated).ok());
      auto kept = server->SerializeState();
      SSE_ASSERT_OK_RESULT(kept);
      EXPECT_EQ(*kept, state);
    }
  }
}

}  // namespace
}  // namespace sse
