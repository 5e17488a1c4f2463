#include <gtest/gtest.h>

#include <cstdio>

#include "test_paths.hpp"
#include "trace/analysis.hpp"
#include "trace/record.hpp"
#include "trace/trace_io.hpp"

namespace mha::trace {
namespace {

using common::OpType;

TraceRecord rec(int rank, OpType op, common::Offset offset, common::ByteCount size,
                common::Seconds t = 0.0, common::Seconds dur = 0.0) {
  TraceRecord r;
  r.pid = 1000 + static_cast<std::uint32_t>(rank);
  r.rank = rank;
  r.fd = 3;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.t_start = t;
  r.duration = dur;
  return r;
}

// --------------------------------------------------------------- record ---

TEST(TraceRecord, SortByOffsetStableTiebreaks) {
  std::vector<TraceRecord> records{rec(1, OpType::kRead, 200, 10, 0.5),
                                   rec(0, OpType::kRead, 100, 10, 0.9),
                                   rec(2, OpType::kRead, 100, 10, 0.1)};
  sort_by_offset(records);
  EXPECT_EQ(records[0].rank, 2);  // same offset, earlier time first
  EXPECT_EQ(records[1].rank, 0);
  EXPECT_EQ(records[2].rank, 1);
}

TEST(TraceRecord, SortByTime) {
  std::vector<TraceRecord> records{rec(0, OpType::kRead, 0, 1, 3.0),
                                   rec(1, OpType::kRead, 0, 1, 1.0),
                                   rec(2, OpType::kRead, 0, 1, 2.0)};
  sort_by_time(records);
  EXPECT_EQ(records[0].rank, 1);
  EXPECT_EQ(records[2].rank, 0);
}

TEST(TraceRecord, ExtentAndMaxSize) {
  std::vector<TraceRecord> records{rec(0, OpType::kWrite, 100, 50),
                                   rec(0, OpType::kWrite, 10, 200)};
  EXPECT_EQ(extent_end(records), 210u);
  EXPECT_EQ(max_request_size(records), 200u);
  EXPECT_EQ(extent_end({}), 0u);
  EXPECT_EQ(max_request_size({}), 0u);
}

// ------------------------------------------------------------------ csv ---

TEST(TraceIo, CsvRoundTrip) {
  Trace trace;
  trace.file_name = "app.dat";
  trace.records = {rec(0, OpType::kRead, 0, 16, 0.001, 0.0005),
                   rec(1, OpType::kWrite, 131056, 131072, 0.002, 0.001)};
  auto parsed = from_csv(to_csv(trace));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->file_name, "app.dat");
  ASSERT_EQ(parsed->records.size(), 2u);
  EXPECT_EQ(parsed->records[0], trace.records[0]);
  EXPECT_EQ(parsed->records[1], trace.records[1]);
}

TEST(TraceIo, RejectsMissingHeader) {
  EXPECT_FALSE(from_csv("1,0,3,R,0,16,0,0\n").is_ok());
}

TEST(TraceIo, RejectsMalformedRow) {
  const std::string text = "# mha-trace v1 file=f\n1,0,3,X,0,16,0,0\n";
  EXPECT_FALSE(from_csv(text).is_ok());
  const std::string truncated = "# mha-trace v1 file=f\n1,0,3,R,0\n";
  EXPECT_FALSE(from_csv(truncated).is_ok());
}

TEST(TraceIo, SkipsCommentsAndColumnHeader) {
  const std::string text =
      "# mha-trace v1 file=f\npid,rank,fd,op,offset,size,t_start,duration\n"
      "# a comment\n1,0,3,R,5,16,0.1,0.0\n";
  auto parsed = from_csv(text);
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed->records.size(), 1u);
  EXPECT_EQ(parsed->records[0].offset, 5u);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = test::temp_path("trace_io", ".csv");
  Trace trace;
  trace.file_name = "x";
  trace.records = {rec(0, OpType::kWrite, 7, 9, 0.25)};
  ASSERT_TRUE(write_csv_file(trace, path).is_ok());
  auto back = read_csv_file(path);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->records, trace.records);
  std::remove(path.c_str());
  EXPECT_FALSE(read_csv_file(path).is_ok());
}

TEST(TraceIo, MergeSortsByTimeAndChecksFileName) {
  Trace a, b;
  a.file_name = b.file_name = "shared";
  a.records = {rec(0, OpType::kRead, 0, 1, 2.0)};
  b.records = {rec(1, OpType::kRead, 10, 1, 1.0)};
  auto merged = merge({a, b});
  ASSERT_TRUE(merged.is_ok());
  ASSERT_EQ(merged->records.size(), 2u);
  EXPECT_EQ(merged->records[0].rank, 1);

  Trace c;
  c.file_name = "other";
  EXPECT_FALSE(merge({a, c}).is_ok());
  EXPECT_FALSE(merge({}).is_ok());
}

// ------------------------------------------------------------- analysis ---

TEST(Analysis, ConcurrencyCountsSimultaneousRequests) {
  // Three at t=0, one at t=1 (far outside the window).
  std::vector<TraceRecord> records{rec(0, OpType::kRead, 0, 1, 0.0),
                                   rec(1, OpType::kRead, 10, 1, 0.0),
                                   rec(2, OpType::kRead, 20, 1, 0.0),
                                   rec(0, OpType::kRead, 30, 1, 1.0)};
  const auto conc = request_concurrency(records);
  EXPECT_EQ(conc[0], 3u);
  EXPECT_EQ(conc[1], 3u);
  EXPECT_EQ(conc[2], 3u);
  EXPECT_EQ(conc[3], 1u);
}

TEST(Analysis, ConcurrencyUsesDurationsWhenPresent) {
  // Long-running request overlaps a later one.
  std::vector<TraceRecord> records{rec(0, OpType::kRead, 0, 1, 0.0, 0.5),
                                   rec(1, OpType::kRead, 10, 1, 0.4, 0.0)};
  const auto conc = request_concurrency(records);
  EXPECT_EQ(conc[0], 2u);
  EXPECT_EQ(conc[1], 2u);
}

TEST(Analysis, ConcurrencyWindowConfigurable) {
  std::vector<TraceRecord> records{rec(0, OpType::kRead, 0, 1, 0.0),
                                   rec(1, OpType::kRead, 10, 1, 0.010)};
  AnalysisOptions narrow;
  narrow.window = 1e-3;
  EXPECT_EQ(request_concurrency(records, narrow)[0], 1u);
  AnalysisOptions wide;
  wide.window = 0.05;
  EXPECT_EQ(request_concurrency(records, wide)[0], 2u);
}

TEST(Analysis, ConcurrencyEmptyInput) {
  EXPECT_TRUE(request_concurrency({}).empty());
}

TEST(Analysis, SummarizeAggregates) {
  std::vector<TraceRecord> records{rec(0, OpType::kRead, 0, 100),
                                   rec(1, OpType::kWrite, 100, 300),
                                   rec(0, OpType::kRead, 400, 100)};
  const TraceSummary s = summarize(records);
  EXPECT_EQ(s.num_requests, 3u);
  EXPECT_EQ(s.num_reads, 2u);
  EXPECT_EQ(s.num_writes, 1u);
  EXPECT_EQ(s.bytes_read, 200u);
  EXPECT_EQ(s.bytes_written, 300u);
  EXPECT_EQ(s.min_size, 100u);
  EXPECT_EQ(s.max_size, 300u);
  EXPECT_NEAR(s.mean_size, 500.0 / 3.0, 1e-9);
  EXPECT_EQ(s.distinct_sizes, 2u);
  EXPECT_EQ(s.extent_end, 500u);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(Analysis, UniformDetection) {
  std::vector<TraceRecord> uniform{rec(0, OpType::kRead, 0, 64), rec(1, OpType::kRead, 64, 64)};
  EXPECT_TRUE(is_uniform(uniform));
  std::vector<TraceRecord> mixed_size{rec(0, OpType::kRead, 0, 64), rec(1, OpType::kRead, 64, 128)};
  EXPECT_FALSE(is_uniform(mixed_size));
  std::vector<TraceRecord> mixed_op{rec(0, OpType::kRead, 0, 64), rec(1, OpType::kWrite, 64, 64)};
  EXPECT_FALSE(is_uniform(mixed_op));
  EXPECT_TRUE(is_uniform({}));
}

}  // namespace
}  // namespace mha::trace
