#include "src/mem/remote_heap.h"

#include <gtest/gtest.h>

#include <vector>

namespace adios {
namespace {

TEST(RemoteRegion, ReadWriteRoundTrip) {
  RemoteRegion region(16 * kPageSize);
  region.WriteObject<uint64_t>(100, 0xdeadbeefull);
  EXPECT_EQ(region.ReadObject<uint64_t>(100), 0xdeadbeefull);
  struct Pair {
    uint32_t a;
    uint32_t b;
  };
  region.WriteObject(200, Pair{7, 9});
  const Pair p = region.ReadObject<Pair>(200);
  EXPECT_EQ(p.a, 7u);
  EXPECT_EQ(p.b, 9u);
}

TEST(RemoteRegion, BytesInterface) {
  RemoteRegion region(4 * kPageSize);
  const char src[] = "adios to busy-waiting";
  region.WriteBytes(kPageSize - 4, src, sizeof(src));  // Page-spanning.
  char dst[sizeof(src)];
  region.ReadBytes(kPageSize - 4, dst, sizeof(src));
  EXPECT_STREQ(dst, src);
}

TEST(RemoteRegion, PageArithmetic) {
  EXPECT_EQ(PageOf(0), 0u);
  EXPECT_EQ(PageOf(4095), 0u);
  EXPECT_EQ(PageOf(4096), 1u);
  EXPECT_EQ(PageStart(3), 3u * 4096);
  RemoteRegion region(8 * kPageSize);
  EXPECT_EQ(region.num_pages(), 8u);
}

TEST(RemoteRegion, BytesNeverWrittenReadAsZero) {
  RemoteRegion region(256 * kPageSize);
  region.WriteObject<uint64_t>(3 * kPageSize + 8, 0x0123456789abcdefull);
  EXPECT_EQ(region.ReadObject<uint64_t>(3 * kPageSize + 8), 0x0123456789abcdefull);
  EXPECT_EQ(region.ReadObject<uint64_t>(3 * kPageSize), 0u);  // Same page, unwritten.
  EXPECT_EQ(region.ReadObject<uint64_t>(0), 0u);
  EXPECT_EQ(region.ReadObject<uint64_t>(region.size() - 8), 0u);
  std::vector<std::byte> page(kPageSize, std::byte{0xFF});
  region.ReadBytes(200 * kPageSize, page.data(), page.size());
  for (std::byte b : page) {
    ASSERT_EQ(b, std::byte{0});
  }
}

TEST(RemoteRegion, WriteGenerationBumpsEveryTouchedPage) {
  RemoteRegion region(8 * kPageSize);
  auto generations = [&] {
    std::vector<uint64_t> g;
    for (uint64_t p = 0; p < region.num_pages(); ++p) {
      g.push_back(region.Generation(p));
    }
    return g;
  };
  EXPECT_EQ(generations(), std::vector<uint64_t>(8, 0));

  // A write straddling the page 2 / page 3 boundary bumps both, nothing else.
  region.WriteObject<uint64_t>(3 * kPageSize - 4, 0x1122334455667788ull);
  EXPECT_EQ(generations(), (std::vector<uint64_t>{0, 0, 1, 1, 0, 0, 0, 0}));
  // One bump per call, however many bytes of the page it covers.
  const std::vector<std::byte> page(kPageSize, std::byte{7});
  region.WriteBytes(5 * kPageSize, page.data(), page.size());
  region.XorBytes(3 * kPageSize + 10, kPageSize, std::byte{0xa5});  // Pages 3 and 4.
  region.WriteBytes(6 * kPageSize, page.data(), 0);  // Empty write touches no page.
  EXPECT_EQ(generations(), (std::vector<uint64_t>{0, 0, 1, 2, 1, 1, 0, 0}));

  // Reads bump nothing.
  const std::vector<uint64_t> before = generations();
  (void)region.ReadObject<uint64_t>(3 * kPageSize - 4);
  std::vector<std::byte> dst(2 * kPageSize);
  region.ReadBytes(2 * kPageSize, dst.data(), dst.size());
  EXPECT_EQ(generations(), before);
}

TEST(RemoteHeap, BumpAllocationAligned) {
  RemoteRegion region(16 * kPageSize);
  RemoteHeap heap(&region);
  const RemoteAddr a = heap.Alloc(10, 8);
  const RemoteAddr b = heap.Alloc(1, 64);
  const RemoteAddr c = heap.Alloc(100, 8);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GT(b, a);
  EXPECT_GT(c, b);
  EXPECT_GE(heap.used_bytes(), 111u);
}

TEST(RemoteHeap, PageAlignedAllocations) {
  RemoteRegion region(16 * kPageSize);
  RemoteHeap heap(&region);
  heap.Alloc(100);
  const RemoteAddr pages = heap.AllocPages(3);
  EXPECT_EQ(pages % kPageSize, 0u);
  EXPECT_EQ(PageOf(pages + 3 * kPageSize - 1) - PageOf(pages), 2u);
}

TEST(RemoteHeap, DistinctAllocationsDoNotOverlap) {
  RemoteRegion region(64 * kPageSize);
  RemoteHeap heap(&region);
  std::vector<std::pair<RemoteAddr, size_t>> allocs;
  for (size_t sz : {8u, 100u, 4096u, 17u, 4000u, 64u}) {
    allocs.push_back({heap.Alloc(sz, 16), sz});
  }
  for (size_t i = 1; i < allocs.size(); ++i) {
    EXPECT_GE(allocs[i].first, allocs[i - 1].first + allocs[i - 1].second);
  }
}

}  // namespace
}  // namespace adios
