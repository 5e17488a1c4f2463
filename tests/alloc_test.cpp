// Counted allocations-per-request on the steady-state replay path.  This
// binary links mha_alloc_hook (counting operator new/delete), so the numbers
// are measured, not estimated: after warm-up, a redirected read or write must
// perform ZERO heap allocations end to end — DRT lookup, redirector
// translation + coalescing, stripe mapping, dispatch, extent-store I/O.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_counter.hpp"
#include "core/redirector.hpp"
#include "fault/context.hpp"
#include "fault/injector.hpp"
#include "io/mpi_file.hpp"
#include "pfs/file_system.hpp"
#include "sim/cluster_sim.hpp"

namespace mha {
namespace {

sim::ClusterConfig cluster() {
  sim::ClusterConfig config;
  config.num_hservers = 6;
  config.num_sservers = 2;
  return config;
}

TEST(AllocCount, HookIsLinked) {
  ASSERT_TRUE(common::allocation_hook_linked());
  common::AllocationScope scope;
  std::vector<int>* v = new std::vector<int>(100);
  delete v;
  EXPECT_GE(scope.allocations(), 1u);
}

TEST(AllocCount, DrtSequentialLookupIsZeroAllocWarm) {
  core::Drt drt("orig");
  constexpr common::ByteCount kEntry = 64 * 1024;
  for (common::Offset pos = 0; pos < 128 * kEntry; pos += kEntry) {
    ASSERT_TRUE(
        drt.insert(core::DrtEntry{pos, kEntry, "region", pos}).is_ok());
  }
  core::Drt::SegmentVec scratch;
  drt.lookup(0, 4096, scratch);  // warm the scratch
  common::AllocationScope scope;
  for (common::Offset pos = 0; pos < 128 * kEntry; pos += 4096) {
    drt.lookup(pos, 4096, scratch);
  }
  const std::uint64_t allocs = scope.allocations();
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocCount, SteadyStateRequestPathIsZeroAlloc) {
  pfs::HybridPfs pfs(cluster());
  constexpr common::ByteCount kFile = 4 * 1024 * 1024;
  constexpr common::ByteCount kRequest = 64 * 1024;
  auto id = pfs.create_file("f");
  ASSERT_TRUE(id.is_ok());

  // Identity redirection, 1 MiB entries: every request flows DRT -> region
  // resolution -> stripe mapping -> dispatch, like a deployed MHA layout.
  auto redirector =
      core::Redirector::create(pfs, core::Redirector::identity_table("f", kFile, 1024 * 1024));
  ASSERT_TRUE(redirector.is_ok());

  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(pfs, mpi, "f");
  ASSERT_TRUE(file.is_ok());
  file->set_interceptor(&*redirector);

  std::vector<std::uint8_t> buffer(kRequest, 0x5A);
  // Warm-up pass: first-touch extents, scratch spill, stats vectors.
  for (common::Offset pos = 0; pos < kFile; pos += kRequest) {
    ASSERT_TRUE(file->write_at(0, pos, buffer.data(), kRequest).is_ok());
  }
  for (common::Offset pos = 0; pos < kFile; pos += kRequest) {
    ASSERT_TRUE(file->read_at(0, pos, buffer.data(), kRequest).is_ok());
  }

  // Steady state: every byte written again (in-place) and read back.
  common::AllocationScope scope;
  for (common::Offset pos = 0; pos < kFile; pos += kRequest) {
    ASSERT_TRUE(file->write_at(0, pos, buffer.data(), kRequest).is_ok());
    ASSERT_TRUE(file->read_at(0, pos, buffer.data(), kRequest).is_ok());
  }
  const std::uint64_t allocs = scope.allocations();
  EXPECT_EQ(allocs, 0u) << "expected a zero-allocation steady-state request path, got "
                        << allocs << " allocations over "
                        << 2 * (kFile / kRequest) << " requests";
}

TEST(AllocCount, SteadyStateUnalignedRequestsAreZeroAllocToo) {
  // 8 KiB entries make each 64 KiB request split into 8+ segments; the
  // SmallVec scratch spills once during warm-up and is retained after.
  pfs::HybridPfs pfs(cluster());
  constexpr common::ByteCount kFile = 1024 * 1024;
  constexpr common::ByteCount kRequest = 64 * 1024;
  ASSERT_TRUE(pfs.create_file("g").is_ok());
  auto redirector =
      core::Redirector::create(pfs, core::Redirector::identity_table("g", kFile, 8 * 1024));
  ASSERT_TRUE(redirector.is_ok());
  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(pfs, mpi, "g");
  ASSERT_TRUE(file.is_ok());
  file->set_interceptor(&*redirector);

  std::vector<std::uint8_t> buffer(kRequest, 0xC3);
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 is warm-up
    common::AllocationScope scope;
    for (common::Offset pos = 0; pos + kRequest <= kFile; pos += kRequest) {
      ASSERT_TRUE(file->write_at(0, pos, buffer.data(), kRequest).is_ok());
      ASSERT_TRUE(file->read_at(0, pos, buffer.data(), kRequest).is_ok());
    }
    if (pass == 1) {
      const std::uint64_t allocs = scope.allocations();
      EXPECT_EQ(allocs, 0u);
    }
  }
}

TEST(AllocCount, ChargingPastParkedRedoEntriesIsZeroAlloc) {
  // Every request charged under a fault context first replays the redo
  // entries whose servers are back.  With HServer 0 down throughout, 64
  // writes park there; the reads that follow touch only server 1, and
  // draining the still-parked log must not allocate for them.
  sim::ClusterConfig config;
  config.num_hservers = 2;
  config.num_sservers = 2;
  pfs::HybridPfs pfs(config);
  auto id = pfs.create_file("redo");  // 64 KiB stripes: server 0, then 1
  ASSERT_TRUE(id.is_ok());
  constexpr common::ByteCount kStripe = 64 * 1024;
  constexpr common::ByteCount kRequest = 4 * 1024;

  fault::FaultInjector injector(1);
  fault::FaultWindow crash;
  crash.server = 0;
  crash.kind = fault::FaultKind::kCrash;
  crash.start = 0.0;
  crash.end = 1e9;
  injector.add(crash);
  fault::FaultContext context(injector);
  pfs.set_fault_context(&context);

  std::vector<std::uint8_t> buffer(kRequest, 0x7C);
  for (common::Offset i = 0; i < 64; ++i) {
    ASSERT_TRUE(pfs.write(*id, (i * kRequest) % kStripe, buffer.data(), kRequest, 0.0).is_ok());
  }
  ASSERT_EQ(context.redo().size(), 64u);
  // Warm-up: server 1's stripe written and read once.
  for (common::Offset pos = kStripe; pos < 2 * kStripe; pos += kRequest) {
    ASSERT_TRUE(pfs.write(*id, pos, buffer.data(), kRequest, 1.0).is_ok());
    ASSERT_TRUE(pfs.read(*id, pos, buffer.data(), kRequest, 1.0).is_ok());
  }

  common::AllocationScope scope;
  for (common::Offset i = 0; i < 256; ++i) {
    const common::Offset pos = kStripe + (i * kRequest) % kStripe;
    ASSERT_TRUE(pfs.read(*id, pos, buffer.data(), kRequest, 2.0).is_ok());
  }
  const std::uint64_t allocs = scope.allocations();
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over 256 reads";
  EXPECT_EQ(context.redo().size(), 64u);
  EXPECT_EQ(injector.metrics().redo_replayed, 0u);
  pfs.set_fault_context(nullptr);
}

}  // namespace
}  // namespace mha
