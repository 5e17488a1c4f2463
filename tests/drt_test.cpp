#include <gtest/gtest.h>

#include <cstdio>

#include "core/drt.hpp"
#include "test_paths.hpp"

namespace mha::core {
namespace {

DrtEntry entry(common::Offset o, common::ByteCount len, std::string r_file,
               common::Offset r) {
  return DrtEntry{o, len, std::move(r_file), r};
}

TEST(Drt, InsertRejectsDegenerate) {
  Drt drt("orig");
  EXPECT_FALSE(drt.insert(entry(0, 0, "r0", 0)).is_ok());
  EXPECT_FALSE(drt.insert(DrtEntry{0, 10, "", 0}).is_ok());
  EXPECT_TRUE(drt.insert(entry(0, 10, "r0", 0)).is_ok());
}

TEST(Drt, InsertRejectsOverlaps) {
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(100, 50, "r0", 0)).is_ok());
  EXPECT_FALSE(drt.insert(entry(100, 50, "r1", 0)).is_ok());  // exact dup
  EXPECT_FALSE(drt.insert(entry(90, 20, "r1", 0)).is_ok());   // left overlap
  EXPECT_FALSE(drt.insert(entry(140, 20, "r1", 0)).is_ok());  // right overlap
  EXPECT_FALSE(drt.insert(entry(110, 10, "r1", 0)).is_ok());  // contained
  EXPECT_FALSE(drt.insert(entry(50, 200, "r1", 0)).is_ok());  // containing
  EXPECT_TRUE(drt.insert(entry(150, 10, "r1", 0)).is_ok());   // adjacent ok
  EXPECT_TRUE(drt.insert(entry(50, 50, "r1", 10)).is_ok());   // adjacent left
  EXPECT_EQ(drt.size(), 3u);
}

TEST(Drt, LookupFullyCovered) {
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(0, 100, "r0", 1000)).is_ok());
  const auto segments = drt.lookup(10, 50);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_TRUE(segments[0].redirected);
  EXPECT_EQ(drt.region_name(segments[0].region), "r0");
  EXPECT_EQ(segments[0].target_offset, 1010u);
  EXPECT_EQ(segments[0].length, 50u);
  EXPECT_EQ(segments[0].logical_offset, 10u);
}

TEST(Drt, LookupUncoveredIsPassthrough) {
  Drt drt("orig");
  const auto segments = drt.lookup(500, 100);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_FALSE(segments[0].redirected);
  EXPECT_EQ(segments[0].target_offset, 500u);
  EXPECT_EQ(segments[0].length, 100u);
}

TEST(Drt, LookupSplitsAcrossEntriesAndGaps) {
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(100, 100, "r0", 0)).is_ok());
  ASSERT_TRUE(drt.insert(entry(300, 100, "r1", 5000)).is_ok());
  // Request [50, 450): gap, r0, gap, r1, gap.
  const auto segments = drt.lookup(50, 400);
  ASSERT_EQ(segments.size(), 5u);
  EXPECT_FALSE(segments[0].redirected);
  EXPECT_EQ(segments[0].length, 50u);
  EXPECT_TRUE(segments[1].redirected);
  EXPECT_EQ(drt.region_name(segments[1].region), "r0");
  EXPECT_EQ(segments[1].length, 100u);
  EXPECT_FALSE(segments[2].redirected);
  EXPECT_EQ(segments[2].length, 100u);
  EXPECT_TRUE(segments[3].redirected);
  EXPECT_EQ(drt.region_name(segments[3].region), "r1");
  EXPECT_EQ(segments[3].target_offset, 5000u);
  EXPECT_FALSE(segments[4].redirected);
  EXPECT_EQ(segments[4].length, 50u);

  // Segments must tile the request exactly.
  common::Offset cursor = 50;
  for (const auto& seg : segments) {
    EXPECT_EQ(seg.logical_offset, cursor);
    cursor += seg.length;
  }
  EXPECT_EQ(cursor, 450u);
}

TEST(Drt, LookupPartialEntryEdges) {
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(100, 100, "r0", 0)).is_ok());
  // Straddles only the entry's tail.
  auto tail = drt.lookup(150, 100);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_TRUE(tail[0].redirected);
  EXPECT_EQ(tail[0].target_offset, 50u);
  EXPECT_EQ(tail[0].length, 50u);
  EXPECT_FALSE(tail[1].redirected);
  // Entirely inside.
  auto inside = drt.lookup(120, 10);
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_EQ(inside[0].target_offset, 20u);
}

TEST(Drt, LookupZeroSize) {
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(0, 10, "r0", 0)).is_ok());
  EXPECT_TRUE(drt.lookup(5, 0).empty());
}

TEST(Drt, CoveredBytesAndMetadata) {
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(0, 100, "r0", 0)).is_ok());
  ASSERT_TRUE(drt.insert(entry(500, 200, "r1", 100)).is_ok());
  EXPECT_EQ(drt.covered_bytes(), 300u);
  EXPECT_GT(drt.metadata_bytes(), 2 * sizeof(DrtEntry) - 1);
  const auto entries = drt.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].o_offset, 0u);
  EXPECT_EQ(entries[1].o_offset, 500u);
}

TEST(Drt, SaveLoadRoundTrip) {
  const std::string path = test::temp_path("drt");
  std::remove(path.c_str());
  Drt drt("data/app.out");
  ASSERT_TRUE(drt.insert(entry(0, 4096, "data/app.out.mha.r0", 0)).is_ok());
  ASSERT_TRUE(drt.insert(entry(8192, 131072, "data/app.out.mha.r1", 4096)).is_ok());
  {
    kv::KvStore store;
    ASSERT_TRUE(store.open(path).is_ok());
    ASSERT_TRUE(drt.save(store).is_ok());
  }
  kv::KvStore store;
  ASSERT_TRUE(store.open(path).is_ok());
  auto loaded = Drt::load(store, "data/app.out");
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded->entries(), drt.entries());
  EXPECT_EQ(loaded->o_file(), "data/app.out");
  std::remove(path.c_str());
}

TEST(Drt, LoadIgnoresOtherFilesEntries) {
  const std::string path = test::temp_path("drt");
  std::remove(path.c_str());
  Drt a("file_a"), b("file_b");
  ASSERT_TRUE(a.insert(entry(0, 10, "ra", 0)).is_ok());
  ASSERT_TRUE(b.insert(entry(0, 20, "rb", 0)).is_ok());
  kv::KvStore store;
  ASSERT_TRUE(store.open(path).is_ok());
  ASSERT_TRUE(a.save(store).is_ok());
  ASSERT_TRUE(b.save(store).is_ok());
  auto loaded = Drt::load(store, "file_a");
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->entries()[0].r_file, "ra");
  std::remove(path.c_str());
}

TEST(Drt, LoadRejectsCorruptValue) {
  const std::string path = test::temp_path("drt");
  std::remove(path.c_str());
  kv::KvStore store;
  ASSERT_TRUE(store.open(path).is_ok());
  ASSERT_TRUE(store.put("f#00000000000000000010", "not-a-valid-row").is_ok());
  EXPECT_FALSE(Drt::load(store, "f").is_ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mha::core
