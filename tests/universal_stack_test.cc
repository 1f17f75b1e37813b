// Universal-stack edge cases: minimum-size stacks, canary/overflow
// detection, double-finish detection, pool audits, and the GuardedStack
// primitive (src/check/stack_guard.h).

#include "src/unithread/universal_stack.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/stack_guard.h"
#include "src/unithread/context.h"

namespace adios {
namespace {

// --- GuardedStack primitive ---

TEST(GuardedStack, AllocationIsAlignedAndGuarded) {
  GuardedStack stack(4096, /*paint=*/true);
  ASSERT_TRUE(stack.valid());
  EXPECT_EQ(stack.size(), 4096u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(stack.data()) % 16, 0u);
  EXPECT_TRUE(stack.CanaryIntact());
  EXPECT_EQ(stack.HighWaterMark(), 0u);  // Untouched since painting.
}

TEST(GuardedStack, HighWaterMarkTracksDeepestUse) {
  GuardedStack stack(4096, /*paint=*/true);
  // A descending stack uses the *top* of the region first.
  std::memset(stack.data() + 4096 - 512, 0xFF, 512);
  EXPECT_EQ(stack.HighWaterMark(), 512u);
  std::memset(stack.data() + 4096 - 1024, 0xFF, 1024);
  EXPECT_EQ(stack.HighWaterMark(), 1024u);
}

TEST(GuardedStack, OverflowBelowUsableRegionTripsCanary) {
  GuardedStack stack(4096);
  ASSERT_TRUE(stack.CanaryIntact());
  stack.data()[-1] = std::byte{0xCC};  // One byte past the overflow edge.
  EXPECT_FALSE(stack.CanaryIntact());
}

TEST(GuardedStack, MoveTransfersOwnership) {
  GuardedStack a(1024);
  std::byte* data = a.data();
  GuardedStack b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.data(), data);
  EXPECT_TRUE(b.CanaryIntact());
}

TEST(StackGuardFreeFunctions, CanaryWriteAndVerify) {
  alignas(16) std::byte strip[kStackCanaryBytes];
  WriteStackCanary(strip);
  EXPECT_TRUE(StackCanaryIntact(strip));
  strip[kStackCanaryBytes / 2] = std::byte{0};
  EXPECT_FALSE(StackCanaryIntact(strip));
}

// --- Minimum-size universal stacks ---

// The smallest buffer the pool accepts: 16-aligned and strictly larger than
// mtu + context + canary + 512 bytes of stack.
UnithreadPool::Options MinimalOptions() {
  UnithreadPool::Options opts;
  opts.count = 2;
  opts.mtu = 64;
  const size_t floor = opts.mtu + sizeof(UnithreadContext) + kStackCanaryBytes + 512;
  opts.buffer_size = (floor + 16) & ~static_cast<size_t>(15);
  return opts;
}

TEST(UniversalStack, MinimumSizeBufferHasUsableStack) {
  UnithreadPool pool(MinimalOptions());
  UnithreadBuffer buf = pool.Acquire();
  ASSERT_TRUE(buf.valid());
  EXPECT_GE(buf.stack_size(), 512u);
  EXPECT_EQ(buf.stack_size() % 16, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.stack_low()) % 16, 0u);
  EXPECT_TRUE(StackCanaryIntact(buf.canary()));
  pool.Release(buf);
}

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
// Redzones (ASan) and instrumented frames (TSan) inflate stack use, so only
// the plain build runs real code on the ~512-byte minimum stack.
void TinyEntry(void* arg) { *static_cast<int*>(arg) = 7; }

TEST(UniversalStack, EntryRunsOnMinimumSizeStack) {
  UnithreadPool pool(MinimalOptions());
  UnithreadBuffer buf = pool.Acquire();
  UnithreadContext parent;
  int result = 0;
  buf.ResetContext(&TinyEntry, &result, &parent);
  AdiosContextSwitch(&parent, buf.context());
  EXPECT_EQ(result, 7);
  EXPECT_TRUE(StackCanaryIntact(buf.canary()));
  pool.Release(buf);
}
#endif

// --- Overflow detection ---

struct OverflowRig {
  UnithreadBuffer* buf;
  UnithreadContext parent;
};

// Simulates a stack overflow from *inside* the affected unithread: code
// running on the universal stack writes below stack_low(), exactly where a
// descending stack grows when it exhausts its region.
void EntryOverflowsIntoCanary(void* arg) {
  auto* rig = static_cast<OverflowRig*>(arg);
  std::memset(rig->buf->canary(), 0xEE, 8);
}

TEST(UniversalStack, OverflowFromRunningCodeTripsCanary) {
  UnithreadPool::Options opts;
  opts.count = 2;
  opts.buffer_size = 16384;
  opts.mtu = 1536;
  UnithreadPool pool(opts);
  UnithreadBuffer buf = pool.Acquire();
  OverflowRig rig{&buf, {}};
  buf.ResetContext(&EntryOverflowsIntoCanary, &rig, &rig.parent);
  AdiosContextSwitch(&rig.parent, buf.context());

  EXPECT_FALSE(StackCanaryIntact(buf.canary()));
  UnithreadPool::AuditResult audit = pool.Audit();
  EXPECT_EQ(audit.buffers_checked, 1u);  // Only the one buffer handed out.
  EXPECT_EQ(audit.canary_violations, 1u);
  EXPECT_TRUE(audit.free_list_ok);

  // Repair so the pool can verify it on release.
  WriteStackCanary(buf.canary());
  pool.Release(buf);
  EXPECT_EQ(pool.Audit().canary_violations, 0u);
}

TEST(UniversalStackDeathTest, ReleaseAbortsOnTrampledCanary) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        UnithreadPool::Options opts;
        opts.count = 1;
        opts.buffer_size = 8192;
        opts.mtu = 1536;
        UnithreadPool pool(opts);
        UnithreadBuffer buf = pool.Acquire();
        buf.canary()[0] = std::byte{0xCC};
        pool.Release(buf);
      },
      "ADIOS_CHECK failed");
}

// --- Double-finish detection ---

void EntryReturnsImmediately(void*) {}

TEST(UniversalStackDeathTest, ResumingFinishedContextAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        UnithreadPool::Options opts;
        opts.count = 1;
        opts.buffer_size = 16384;
        opts.mtu = 1536;
        UnithreadPool pool(opts);
        UnithreadBuffer buf = pool.Acquire();
        UnithreadContext parent;
        buf.ResetContext(&EntryReturnsImmediately, nullptr, &parent);
        AdiosContextSwitch(&parent, buf.context());  // Runs to completion.
        // The unithread already finished; switching into it again must be
        // caught before the switch corrupts the dead stack.
        AdiosContextSwitch(&parent, buf.context());
      },
      "finished");
}

// --- Pool audit ---

void EntryBurnsStack(void* arg) {
  volatile char local[3000];
  local[0] = 1;
  local[2999] = 2;
  *static_cast<int*>(arg) = local[0] + local[2999];
}

TEST(UniversalStack, AuditRecoversHighWaterMarkFromPaintedStacks) {
  UnithreadPool::Options opts;
  opts.count = 4;
  opts.buffer_size = 16384;
  opts.mtu = 1536;
  opts.paint_stacks = true;
  UnithreadPool pool(opts);
  EXPECT_EQ(pool.Audit().max_high_water, 0u);  // Nothing has run yet.

  UnithreadBuffer buf = pool.Acquire();
  UnithreadContext parent;
  int result = 0;
  buf.ResetContext(&EntryBurnsStack, &result, &parent);
  AdiosContextSwitch(&parent, buf.context());
  EXPECT_EQ(result, 3);

  UnithreadPool::AuditResult audit = pool.Audit();
  EXPECT_GE(audit.max_high_water, 3000u);
  EXPECT_LE(audit.max_high_water, buf.stack_size());
  EXPECT_EQ(audit.canary_violations, 0u);
  pool.Release(buf);
}

TEST(UniversalStack, PaintOnFirstHandOutKeepsLifetimeHighWaterMark) {
  UnithreadPool::Options opts;
  opts.count = 4;
  opts.buffer_size = 16384;
  opts.mtu = 1536;
  opts.paint_stacks = true;
  UnithreadPool pool(opts);

  UnithreadBuffer buf = pool.Acquire();
  UnithreadContext parent;
  int result = 0;
  buf.ResetContext(&EntryBurnsStack, &result, &parent);
  AdiosContextSwitch(&parent, buf.context());
  pool.Release(buf);

  // LIFO hands the same buffer back; it is not repainted, so the mark its
  // earlier run left survives. The second buffer is painted fresh.
  UnithreadBuffer again = pool.Acquire();
  EXPECT_EQ(again.payload(), buf.payload());
  UnithreadBuffer fresh = pool.Acquire();
  EXPECT_EQ(StackHighWaterMark(fresh.stack_low(), fresh.stack_size()), 0u);
  UnithreadPool::AuditResult audit = pool.Audit();
  EXPECT_EQ(audit.buffers_checked, 2u);
  EXPECT_GE(audit.max_high_water, 3000u);
  EXPECT_EQ(audit.canary_violations, 0u);
  pool.Release(fresh);
  pool.Release(again);
}

TEST(UniversalStack, AuditCoversHandedOutPrefix) {
  UnithreadPool::Options opts;
  opts.count = 8;
  opts.buffer_size = 8192;
  opts.mtu = 1536;
  UnithreadPool pool(opts);
  EXPECT_EQ(pool.Audit().buffers_checked, 0u);
  EXPECT_TRUE(pool.Audit().free_list_ok);

  UnithreadBuffer a = pool.Acquire();
  UnithreadBuffer b = pool.Acquire();
  UnithreadBuffer c = pool.Acquire();
  pool.Release(b);
  UnithreadPool::AuditResult audit = pool.Audit();
  EXPECT_EQ(audit.buffers_checked, 3u);  // Released buffers stay in the prefix.
  EXPECT_EQ(audit.canary_violations, 0u);
  EXPECT_TRUE(audit.free_list_ok);

  // A stale writer tramples the canary of a buffer already back in the pool.
  b.canary()[0] = std::byte{0xCC};
  audit = pool.Audit();
  EXPECT_EQ(audit.buffers_checked, 3u);
  EXPECT_EQ(audit.canary_violations, 1u);
  WriteStackCanary(b.canary());

  pool.Release(c);
  EXPECT_TRUE(pool.Audit().free_list_ok);
  EXPECT_TRUE(a.valid());
}

// A double release while another buffer is still out (so the free list is
// not full) would leave a duplicate on the free list and hand one buffer to
// two unithreads: Release refuses it.
TEST(UniversalStackDeathTest, DoubleReleaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        UnithreadPool::Options opts;
        opts.count = 4;
        opts.buffer_size = 8192;
        opts.mtu = 1536;
        UnithreadPool pool(opts);
        UnithreadBuffer a = pool.Acquire();
        UnithreadBuffer b = pool.Acquire();
        pool.Release(b);
        pool.Release(b);
        pool.Release(a);
      },
      "ADIOS_CHECK failed");
}

// --- Demand paging of the arena ---

// Resident host pages of [addr, addr + len), per mincore(2).
std::vector<bool> ResidentPages(const std::byte* addr, size_t len) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((len + page - 1) / page);
  EXPECT_EQ(mincore(const_cast<std::byte*>(addr), len, vec.data()), 0);
  std::vector<bool> resident(vec.size());
  for (size_t i = 0; i < vec.size(); ++i) {
    resident[i] = (vec[i] & 1) != 0;
  }
  return resident;
}

size_t CountResident(const std::vector<bool>& pages) {
  size_t n = 0;
  for (bool r : pages) {
    n += r ? 1 : 0;
  }
  return n;
}

TEST(UnithreadPoolPaging, ConstructionFaultsInNoArenaPages) {
  UnithreadPool::Options opts;
  opts.count = 8192;
  opts.buffer_size = 32 * 1024;
  opts.mtu = 1536;
  UnithreadPool pool(opts);
  const std::byte* arena = pool.FromIndex(0).payload();
  EXPECT_EQ(CountResident(ResidentPages(arena, pool.MemoryFootprint())), 0u);
}

TEST(UnithreadPoolPaging, AcquireFaultsInOnlyHandedOutBuffers) {
  UnithreadPool::Options opts;
  opts.count = 8192;
  opts.buffer_size = 32 * 1024;
  opts.mtu = 1536;
  UnithreadPool pool(opts);
  const std::byte* arena = pool.FromIndex(0).payload();
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t pages_per_buffer = opts.buffer_size / page;

  constexpr size_t kHandedOut = 5;
  std::vector<UnithreadBuffer> bufs;
  for (size_t i = 0; i < kHandedOut; ++i) {
    bufs.push_back(pool.Acquire());
  }
  // Hand-out writes the context id and the canary, both on a buffer's first
  // page (mtu + context + canary < one page); nothing else is touched.
  std::vector<bool> resident = ResidentPages(arena, pool.MemoryFootprint());
  EXPECT_EQ(CountResident(resident), kHandedOut);
  for (size_t i = 0; i < kHandedOut; ++i) {
    EXPECT_TRUE(resident[i * pages_per_buffer]) << "buffer " << i;
  }

  // Recycling through the LIFO free list reuses them and touches no other.
  for (UnithreadBuffer& b : bufs) {
    pool.Release(b);
  }
  for (int round = 0; round < 100; ++round) {
    UnithreadBuffer b = pool.Acquire();
    pool.Release(b);
  }
  EXPECT_EQ(CountResident(ResidentPages(arena, pool.MemoryFootprint())), kHandedOut);
  EXPECT_EQ(pool.Audit().buffers_checked, kHandedOut);
}

TEST(UnithreadPoolPaging, PaintedHandOutFaultsInWholeBuffer) {
  UnithreadPool::Options opts;
  opts.count = 64;
  opts.buffer_size = 32 * 1024;
  opts.mtu = 1536;
  opts.paint_stacks = true;
  UnithreadPool pool(opts);
  const std::byte* arena = pool.FromIndex(0).payload();
  EXPECT_EQ(CountResident(ResidentPages(arena, pool.MemoryFootprint())), 0u);
  UnithreadBuffer buf = pool.Acquire();
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  EXPECT_EQ(CountResident(ResidentPages(arena, pool.MemoryFootprint())),
            opts.buffer_size / page);
  pool.Release(buf);
}

}  // namespace
}  // namespace adios
