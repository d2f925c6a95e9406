#include "sse/storage/document_store.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace sse::storage {
namespace {

TEST(DocumentStoreTest, PutGet) {
  DocumentStore store;
  store.Put(7, Bytes{1, 2, 3});
  auto got = store.Get(7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (Bytes{1, 2, 3}));
  EXPECT_TRUE(store.Contains(7));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_bytes(), 3u);
}

TEST(DocumentStoreTest, GetMissing) {
  DocumentStore store;
  auto got = store.Get(1);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(DocumentStoreTest, PutReplaceTracksBytes) {
  DocumentStore store;
  store.Put(1, Bytes(100, 0));
  EXPECT_EQ(store.total_bytes(), 100u);
  store.Put(1, Bytes(40, 0));
  EXPECT_EQ(store.total_bytes(), 40u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(DocumentStoreTest, GetManySkipsMissing) {
  DocumentStore store;
  store.Put(1, Bytes{0xa});
  store.Put(3, Bytes{0xb});
  auto got = store.GetMany({1, 2, 3, 4});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 1u);
  EXPECT_EQ(got[1].first, 3u);
}

TEST(DocumentStoreTest, ForEachOrderedAndEarlyStop) {
  DocumentStore store;
  store.Put(3, Bytes{3});
  store.Put(1, Bytes{1});
  store.Put(2, Bytes{2});
  std::vector<uint64_t> ids;
  store.ForEach([&](uint64_t id, const Bytes&) {
    ids.push_back(id);
    return ids.size() < 2;
  });
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2}));
}

}  // namespace
}  // namespace sse::storage
