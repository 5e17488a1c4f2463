#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "kv/kvstore.hpp"
#include "test_paths.hpp"

namespace mha::kv {
namespace {

class KvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::temp_path("kv");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(KvTest, OpenCreatesFile) {
  KvStore store;
  ASSERT_TRUE(store.open(path_).is_ok());
  EXPECT_TRUE(store.is_open());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path_));
}

TEST_F(KvTest, PutGetRoundTrip) {
  KvStore store;
  ASSERT_TRUE(store.open(path_).is_ok());
  ASSERT_TRUE(store.put("alpha", "1").is_ok());
  ASSERT_TRUE(store.put("beta", "two").is_ok());
  EXPECT_EQ(store.get("alpha"), "1");
  EXPECT_EQ(store.get("beta"), "two");
  EXPECT_FALSE(store.get("gamma").has_value());
  EXPECT_TRUE(store.contains("alpha"));
  EXPECT_FALSE(store.contains("gamma"));
}

TEST_F(KvTest, OverwriteKeepsLatest) {
  KvStore store;
  ASSERT_TRUE(store.open(path_).is_ok());
  ASSERT_TRUE(store.put("k", "v1").is_ok());
  ASSERT_TRUE(store.put("k", "v2").is_ok());
  EXPECT_EQ(store.get("k"), "v2");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.dead_records(), 1u);
}

TEST_F(KvTest, EraseRemoves) {
  KvStore store;
  ASSERT_TRUE(store.open(path_).is_ok());
  ASSERT_TRUE(store.put("k", "v").is_ok());
  ASSERT_TRUE(store.erase("k").is_ok());
  EXPECT_FALSE(store.get("k").has_value());
  EXPECT_EQ(store.size(), 0u);
  // Erasing an absent key is a no-op success.
  EXPECT_TRUE(store.erase("never-existed").is_ok());
}

TEST_F(KvTest, PersistsAcrossReopen) {
  {
    KvStore store;
    ASSERT_TRUE(store.open(path_).is_ok());
    ASSERT_TRUE(store.put("drt:0", "region0,0,4096").is_ok());
    ASSERT_TRUE(store.put("drt:4096", "region1,0,8192").is_ok());
    ASSERT_TRUE(store.erase("drt:0").is_ok());
    ASSERT_TRUE(store.close().is_ok());
  }
  KvStore reopened;
  ASSERT_TRUE(reopened.open(path_).is_ok());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_FALSE(reopened.get("drt:0").has_value());
  EXPECT_EQ(reopened.get("drt:4096"), "region1,0,8192");
}

TEST_F(KvTest, BinarySafeKeysAndValues) {
  KvStore store;
  ASSERT_TRUE(store.open(path_).is_ok());
  const std::string key("\x00\x01\xff key", 8);
  const std::string value("\x00\xfe\x00 value", 9);
  ASSERT_TRUE(store.put(key, value).is_ok());
  ASSERT_TRUE(store.close().is_ok());

  KvStore reopened;
  ASSERT_TRUE(reopened.open(path_).is_ok());
  EXPECT_EQ(reopened.get(key), value);
}

TEST_F(KvTest, TornTailIsTruncatedOnReload) {
  {
    KvStore store;
    ASSERT_TRUE(store.open(path_).is_ok());
    ASSERT_TRUE(store.put("good", "value").is_ok());
    ASSERT_TRUE(store.close().is_ok());
  }
  // Simulate a crash mid-append: garbage half-record at the tail.
  {
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    f.write("\x12\x34\x56", 3);
  }
  KvStore reopened;
  ASSERT_TRUE(reopened.open(path_).is_ok());
  EXPECT_EQ(reopened.get("good"), "value");
  // The store must still be appendable after truncating the tail.
  ASSERT_TRUE(reopened.put("more", "data").is_ok());
  ASSERT_TRUE(reopened.close().is_ok());
  KvStore third;
  ASSERT_TRUE(third.open(path_).is_ok());
  EXPECT_EQ(third.get("more"), "data");
}

TEST_F(KvTest, CorruptMiddleRecordDropsTail) {
  {
    KvStore store;
    ASSERT_TRUE(store.open(path_).is_ok());
    ASSERT_TRUE(store.put("first", "1").is_ok());
    ASSERT_TRUE(store.put("second", "2").is_ok());
    ASSERT_TRUE(store.close().is_ok());
  }
  // Flip a byte inside the second record's payload region.
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-2, std::ios::end);
    f.put('X');
  }
  KvStore reopened;
  ASSERT_TRUE(reopened.open(path_).is_ok());
  EXPECT_EQ(reopened.get("first"), "1");
  EXPECT_FALSE(reopened.get("second").has_value());
}

TEST_F(KvTest, CompactShrinksLog) {
  KvStore store;
  KvOptions options;
  options.auto_compact_dead_records = 1u << 30;  // manual compaction only
  ASSERT_TRUE(store.open(path_, options).is_ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.put("churn", "value" + std::to_string(i)).is_ok());
  }
  ASSERT_TRUE(store.close().is_ok());
  const auto before = std::filesystem::file_size(path_);

  KvStore again;
  ASSERT_TRUE(again.open(path_, options).is_ok());
  EXPECT_EQ(again.dead_records(), 99u);
  ASSERT_TRUE(again.compact().is_ok());
  EXPECT_EQ(again.dead_records(), 0u);
  EXPECT_EQ(again.get("churn"), "value99");
  ASSERT_TRUE(again.close().is_ok());
  EXPECT_LT(std::filesystem::file_size(path_), before / 10);
}

TEST_F(KvTest, StaleCompactTempIsDiscardedOnOpen) {
  {
    KvStore store;
    ASSERT_TRUE(store.open(path_).is_ok());
    ASSERT_TRUE(store.put("live", "data").is_ok());
    ASSERT_TRUE(store.close().is_ok());
  }
  // Simulate a crash mid-compaction: a half-written temp file beside the
  // live log.  The live log is authoritative until the atomic rename, so
  // reopening must ignore (and remove) the leftover.
  const std::string tmp = path_ + ".compact";
  {
    std::ofstream f(tmp, std::ios::binary);
    f.write("partial compaction garbage", 26);
  }
  KvStore reopened;
  ASSERT_TRUE(reopened.open(path_).is_ok());
  EXPECT_EQ(reopened.get("live"), "data");
  EXPECT_FALSE(std::filesystem::exists(tmp));
  // A fresh compaction over the cleaned-up name still works end to end.
  ASSERT_TRUE(reopened.put("live", "newer").is_ok());
  ASSERT_TRUE(reopened.compact().is_ok());
  ASSERT_TRUE(reopened.close().is_ok());
  KvStore third;
  ASSERT_TRUE(third.open(path_).is_ok());
  EXPECT_EQ(third.get("live"), "newer");
  EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST_F(KvTest, AutoCompactTriggers) {
  KvStore store;
  KvOptions options;
  options.auto_compact_dead_records = 8;
  ASSERT_TRUE(store.open(path_, options).is_ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.put("k", std::to_string(i)).is_ok());
  }
  EXPECT_LT(store.dead_records(), 8u);
  EXPECT_EQ(store.get("k"), "49");
}

TEST_F(KvTest, SyncEveryWriteSurvivesReload) {
  KvStore store;
  KvOptions options;
  options.sync = SyncMode::kEveryWrite;
  ASSERT_TRUE(store.open(path_, options).is_ok());
  ASSERT_TRUE(store.put("durable", "yes").is_ok());
  // No close: a reader opening the same path must already see the record.
  KvStore reader;
  ASSERT_TRUE(reader.open(path_ + ".copy").is_ok());  // placeholder open
  (void)reader;
  std::ifstream f(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(f)), {});
  EXPECT_NE(contents.find("durable"), std::string::npos);
  std::remove((path_ + ".copy").c_str());
}

TEST_F(KvTest, ForEachVisitsAllAndStopsEarly) {
  KvStore store;
  ASSERT_TRUE(store.open(path_).is_ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.put("key" + std::to_string(i), "v").is_ok());
  }
  int visited = 0;
  store.for_each([&](std::string_view, std::string_view) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 10);
  visited = 0;
  store.for_each([&](std::string_view, std::string_view) {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3);
}

TEST_F(KvTest, OperationsFailWhenClosed) {
  KvStore store;
  EXPECT_FALSE(store.put("k", "v").is_ok());
  EXPECT_FALSE(store.erase("k").is_ok());
  EXPECT_FALSE(store.compact().is_ok());
}

TEST_F(KvTest, DoubleOpenRejected) {
  KvStore store;
  ASSERT_TRUE(store.open(path_).is_ok());
  EXPECT_FALSE(store.open(path_).is_ok());
}

TEST_F(KvTest, BulkLoadThenSync) {
  KvStore store;
  ASSERT_TRUE(store.open(path_).is_ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.put("bulk" + std::to_string(i), "v").is_ok());
  }
  ASSERT_TRUE(store.sync().is_ok());
  // After the explicit sync every record is on disk even without close().
  std::ifstream f(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(f)), {});
  EXPECT_NE(contents.find("bulk199"), std::string::npos);
  KvStore closed;
  EXPECT_FALSE(closed.sync().is_ok());
}

TEST_F(KvTest, MoveTransfersOwnership) {
  KvStore store;
  ASSERT_TRUE(store.open(path_).is_ok());
  ASSERT_TRUE(store.put("k", "v").is_ok());
  KvStore moved = std::move(store);
  EXPECT_TRUE(moved.is_open());
  EXPECT_EQ(moved.get("k"), "v");
  ASSERT_TRUE(moved.put("k2", "v2").is_ok());
  EXPECT_EQ(moved.size(), 2u);
}

}  // namespace
}  // namespace mha::kv
