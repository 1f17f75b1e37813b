// Integrity layer: checksum codec properties and the corruption ledger's
// bookkeeping (docs/INTEGRITY.md).

#include "src/integrity/integrity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/integrity/page_checksum.h"
#include "src/mem/remote_heap.h"

namespace adios {
namespace {

// --- Checksum codec ---

TEST(PageChecksum, ZeroPageHasStableNonTrivialDigest) {
  std::vector<uint8_t> page(kPageSize, 0);
  const uint64_t a = PageChecksum(page.data(), page.size(), 41);
  const uint64_t b = PageChecksum(page.data(), page.size(), 41);
  EXPECT_EQ(a, b);
  // An all-zero page must not digest to zero (the classic "memset page
  // passes its CRC" failure mode).
  EXPECT_NE(a, 0u);
  // Nor may it collide with the empty digest.
  EXPECT_NE(a, PageChecksum(nullptr, 0, 41));
}

TEST(PageChecksum, SingleBitFlipChangesDigest) {
  std::vector<uint8_t> page(kPageSize, 0);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint64_t clean = PageChecksum(page.data(), page.size(), 41);
  // Flip one bit at the front, middle, and tail of the page.
  for (const size_t byte : {size_t{0}, page.size() / 2, page.size() - 1}) {
    for (const int bit : {0, 3, 7}) {
      page[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(PageChecksum(page.data(), page.size(), 41), clean)
          << "byte " << byte << " bit " << bit;
      page[byte] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(PageChecksum(page.data(), page.size(), 41), clean);
}

TEST(PageChecksum, TornWordAndSwappedWordsChangeDigest) {
  std::vector<uint8_t> page(kPageSize, 0);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i ^ (i >> 3));
  }
  const uint64_t clean = PageChecksum(page.data(), page.size(), 41);

  // Torn 8-byte word: one aligned word reverts to stale contents.
  std::vector<uint8_t> torn = page;
  const uint64_t stale = 0xdeadbeefcafef00dull;
  std::memcpy(torn.data() + 512, &stale, sizeof(stale));
  EXPECT_NE(PageChecksum(torn.data(), torn.size(), 41), clean);

  // Swapped adjacent words: the chained mix is position-sensitive, so a
  // same-multiset permutation must still change the digest.
  std::vector<uint8_t> swapped = page;
  uint8_t tmp[8];
  std::memcpy(tmp, swapped.data() + 64, 8);
  std::memcpy(swapped.data() + 64, swapped.data() + 72, 8);
  std::memcpy(swapped.data() + 72, tmp, 8);
  EXPECT_NE(PageChecksum(swapped.data(), swapped.size(), 41), clean);
}

TEST(PageChecksum, SeedChangesDigestButNotDetection) {
  std::vector<uint8_t> page(kPageSize, 0xab);
  const uint64_t s41 = PageChecksum(page.data(), page.size(), 41);
  const uint64_t s42 = PageChecksum(page.data(), page.size(), 42);
  EXPECT_NE(s41, s42);  // Seeded: digests differ per deployment...
  page[100] ^= 0x10;
  // ...but any seed detects the same flip.
  EXPECT_NE(PageChecksum(page.data(), page.size(), 41), s41);
  EXPECT_NE(PageChecksum(page.data(), page.size(), 42), s42);
}

TEST(PageChecksum, ShortTailIsZeroPaddedNotIgnored) {
  // Lengths that are not a multiple of 8 must still cover the tail bytes.
  std::vector<uint8_t> buf(13, 0);
  const uint64_t clean = PageChecksum(buf.data(), buf.size(), 41);
  buf[12] = 1;  // Last byte, inside the partial word.
  EXPECT_NE(PageChecksum(buf.data(), buf.size(), 41), clean);
  // And length itself is part of the digest domain.
  EXPECT_NE(PageChecksum(buf.data(), 12, 41), clean);
}

// Lane boundaries: word k feeds lane k mod 4 in groups of four words (32
// bytes); words past the last full group and a partial word mix in serially.
// Each length below sits on one side of a boundary.
constexpr size_t kLaneBoundaryLengths[] = {0, 8, 24, 32, 40, 4088, 4096, 4100};

std::vector<uint8_t> PatternedBuffer(size_t len) {
  std::vector<uint8_t> buf(len);
  for (size_t i = 0; i < len; ++i) {
    buf[i] = static_cast<uint8_t>(i * 37 + (i >> 8) + 1);
  }
  return buf;
}

TEST(PageChecksum, EveryWordChangeIsDetectedAtLaneBoundaries) {
  for (const size_t len : kLaneBoundaryLengths) {
    std::vector<uint8_t> buf = PatternedBuffer(len);
    const uint64_t clean = PageChecksum(buf.data(), len, 41);
    EXPECT_EQ(PageChecksum(buf.data(), len, 41), clean) << len;
    // Flip one bit in every 8-byte word (and in the partial tail word).
    for (size_t off = 0; off < len; off += 8) {
      const size_t byte = std::min(off + 5, len - 1);
      buf[byte] ^= 0x40;
      EXPECT_NE(PageChecksum(buf.data(), len, 41), clean) << "len " << len << " byte " << byte;
      buf[byte] ^= 0x40;
    }
  }
}

TEST(PageChecksum, LengthsAcrossLaneBoundariesDigestDistinctly) {
  const std::vector<uint8_t> zeros(4100, 0);
  std::vector<uint64_t> digests;
  for (const size_t len : kLaneBoundaryLengths) {
    const uint64_t d = PageChecksum(zeros.data(), len, 41);
    for (const uint64_t prev : digests) {
      EXPECT_NE(d, prev) << len;
    }
    digests.push_back(d);
  }
}

TEST(PageChecksum, SwapsAcrossAndWithinLanesChangeDigest) {
  std::vector<uint8_t> page = PatternedBuffer(kPageSize);
  const uint64_t clean = PageChecksum(page.data(), page.size(), 41);
  auto swapped_digest = [&](size_t word_a, size_t word_b) {
    std::vector<uint8_t> copy = page;
    uint8_t tmp[8];
    std::memcpy(tmp, copy.data() + 8 * word_a, 8);
    std::memcpy(copy.data() + 8 * word_a, copy.data() + 8 * word_b, 8);
    std::memcpy(copy.data() + 8 * word_b, tmp, 8);
    return PageChecksum(copy.data(), copy.size(), 41);
  };
  EXPECT_NE(swapped_digest(1, 2), clean);      // Lanes 1 and 2, same group.
  EXPECT_NE(swapped_digest(3, 260), clean);    // Lanes 3 and 0, far apart.
  EXPECT_NE(swapped_digest(6, 10), clean);     // Both lane 2, adjacent groups.
  EXPECT_NE(swapped_digest(0, 508), clean);    // Both lane 0, first and last group.
}

// --- Corruption ledger ---

class IntegrityLayerTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPages = 8;
  static constexpr uint32_t kNodes = 2;
  static constexpr uint32_t kReplicas = 2;

  IntegrityLayerTest() : region_(kPages * kPageSize) {
    std::vector<std::byte> bytes(region_.size());
    for (uint64_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::byte>(i * 17 + 3);
    }
    region_.WriteBytes(0, bytes.data(), bytes.size());
    IntegrityConfig cfg;
    cfg.verify = true;
    layer_ = std::make_unique<IntegrityLayer>(cfg, &region_, kPages, kPageSize, kNodes,
                                              kReplicas);
  }

  // Repairs recorded by the test repair hook, as (vpage, node) pairs.
  std::vector<std::pair<uint64_t, uint32_t>> repairs_;

  void InstallRepairHook() {
    layer_->set_repair_fn(
        [this](uint64_t vpage, uint32_t node) { repairs_.emplace_back(vpage, node); });
  }

  RemoteRegion region_;
  std::unique_ptr<IntegrityLayer> layer_;
};

TEST_F(IntegrityLayerTest, PrimedSlotsVerifyClean) {
  for (uint64_t vpage = 0; vpage < kPages; ++vpage) {
    for (uint32_t slot = 0; slot < kReplicas; ++slot) {
      const uint32_t node = layer_->NodeOfSlot(vpage, slot);
      EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/vpage, vpage, node));
      EXPECT_EQ(layer_->ChecksumOf(vpage, slot), layer_->ComputeChecksum(vpage));
    }
  }
  EXPECT_EQ(layer_->detected(), 0u);
  EXPECT_EQ(layer_->served_corrupt(), 0u);
}

TEST_F(IntegrityLayerTest, WireCorruptReadFailsVerifyExactlyOnce) {
  layer_->OnWireCorrupt(/*wr_id=*/3, /*is_write=*/false);
  EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/3, /*vpage=*/3, /*node=*/1));
  // The flag is consumed by one completion: the retried READ is clean.
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/3, /*vpage=*/3, /*node=*/1));
}

TEST_F(IntegrityLayerTest, StoredPoisonPersistsUntilCleanWriteLands) {
  // A wire-corrupted WRITE lands on (vpage 2, node 0): the stored copy is
  // poisoned, and stays poisoned across any number of reads.
  layer_->OnWritePosted(/*wr_id=*/100, /*vpage=*/2);
  layer_->OnWireCorrupt(/*wr_id=*/100, /*is_write=*/true);
  layer_->OnReplicaWritten(/*wr_id=*/100, /*vpage=*/2, /*node=*/0);
  EXPECT_TRUE(layer_->StoredPoisoned(2, 0));
  EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/2, 2, /*node=*/0));
  EXPECT_FALSE(layer_->CheckPayload(/*wr_id=*/2, 2, /*node=*/0));
  // The replica slot on node 1 is untouched.
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/2, 2, /*node=*/1));
  // A clean WRITE over the slot clears the poison.
  layer_->OnWritePosted(/*wr_id=*/101, /*vpage=*/2);
  layer_->OnReplicaWritten(/*wr_id=*/101, /*vpage=*/2, /*node=*/0);
  EXPECT_FALSE(layer_->StoredPoisoned(2, 0));
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/2, 2, /*node=*/0));
}

TEST_F(IntegrityLayerTest, LostUpdateDetectedByRecompute) {
  // The app dirties page 5 but the write-back never lands: the recorded
  // digests go stale against the region, and the next verified fetch of
  // either slot catches it.
  region_.XorBytes(5 * kPageSize + 9, 1, std::byte{0x40});
  EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/5, 5, /*node=*/1));
  // A write-back fan-out refreshes both slots and the fetch is clean again.
  layer_->OnWritePosted(/*wr_id=*/200, /*vpage=*/5);
  layer_->OnWritePosted(/*wr_id=*/201, /*vpage=*/5);
  layer_->OnReplicaWritten(/*wr_id=*/200, /*vpage=*/5, /*node=*/1);
  layer_->OnReplicaWritten(/*wr_id=*/201, /*vpage=*/5, /*node=*/0);
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/5, 5, /*node=*/1));
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/5, 5, /*node=*/0));
}

TEST_F(IntegrityLayerTest, PostTimeSnapshotWinsOverCompletionTimeRegion) {
  // A WRITE posts while the region holds contents A; the page is re-dirtied
  // to B while the WRITE is in flight. The slot's digest must be A (what the
  // wire carried), so the slot correctly reads as stale afterwards.
  const uint64_t sum_a = layer_->ComputeChecksum(6);
  layer_->OnWritePosted(/*wr_id=*/300, /*vpage=*/6);
  region_.XorBytes(6 * kPageSize, 1, std::byte{0xff});  // Re-dirty in flight.
  layer_->OnReplicaWritten(/*wr_id=*/300, /*vpage=*/6, /*node=*/0);
  EXPECT_EQ(layer_->ChecksumOf(6, 0), sum_a);
  EXPECT_NE(layer_->ChecksumOf(6, 0), layer_->ComputeChecksum(6));
}

TEST_F(IntegrityLayerTest, DetectionConservationWithRepairHook) {
  InstallRepairHook();
  EXPECT_TRUE(layer_->OnCorruptionDetected(/*vpage=*/1, /*node=*/1, /*from_scrub=*/false));
  // Re-detection while the repair is outstanding neither recounts nor
  // re-queues.
  EXPECT_FALSE(layer_->OnCorruptionDetected(1, 1, /*from_scrub=*/true));
  ASSERT_EQ(repairs_.size(), 1u);
  EXPECT_EQ(repairs_[0], (std::pair<uint64_t, uint32_t>{1, 1}));
  EXPECT_EQ(layer_->detected(), 1u);
  EXPECT_EQ(layer_->repaired(), 0u);
  EXPECT_TRUE(layer_->Outstanding(1, /*slot=*/0));  // Node 1 hosts slot 0 of page 1.
  // The repair WRITE lands: outstanding drains into repaired.
  layer_->OnWritePosted(/*wr_id=*/400, /*vpage=*/1);
  layer_->OnReplicaWritten(/*wr_id=*/400, /*vpage=*/1, /*node=*/1);
  EXPECT_EQ(layer_->repaired(), 1u);
  EXPECT_FALSE(layer_->Outstanding(1, 0));
  // detected == repaired + outstanding.
  EXPECT_EQ(layer_->detected(), layer_->repaired() + 0u);
}

TEST_F(IntegrityLayerTest, NoRepairHookMeansUnrepairableStaysOutstanding) {
  EXPECT_TRUE(layer_->OnCorruptionDetected(/*vpage=*/4, /*node=*/0, /*from_scrub=*/true));
  EXPECT_EQ(layer_->detected(), 1u);
  EXPECT_EQ(layer_->unrepairable(), 1u);
  EXPECT_EQ(layer_->scrub_finds(), 1u);
  EXPECT_TRUE(layer_->Outstanding(4, /*slot=*/0));
  // Repeated scrub passes over the same dead slot never recount.
  EXPECT_FALSE(layer_->OnCorruptionDetected(4, 0, /*from_scrub=*/true));
  EXPECT_EQ(layer_->detected(), 1u);
  uint64_t outstanding = 0;
  layer_->ForEachOutstanding([&](uint64_t, uint32_t) { ++outstanding; });
  EXPECT_EQ(layer_->detected(), layer_->repaired() + outstanding);
}

TEST_F(IntegrityLayerTest, VerifyOffOracleCountsServedCorruption) {
  IntegrityConfig cfg;
  cfg.oracle = true;  // verify stays false.
  IntegrityLayer oracle(cfg, &region_, kPages, kPageSize, kNodes, kReplicas);
  oracle.OnWireCorrupt(/*wr_id=*/7, /*is_write=*/false);
  // The corrupted payload is still mapped (returns true)...
  EXPECT_TRUE(oracle.VerifyFetch(/*wr_id=*/7, /*vpage=*/7, /*node=*/1));
  // ...but the ledger remembers the app consumed bad bytes.
  EXPECT_EQ(oracle.served_corrupt(), 1u);
  EXPECT_EQ(oracle.VerifyCost(), 0u);
}

TEST_F(IntegrityLayerTest, RecomputeFilterSkipsDigestButNotWireEvidence) {
  bool skip = true;
  layer_->set_recompute_filter([&skip](uint64_t) { return skip; });
  // Region scrambled (as the checker's poison-on-evict does): the filter
  // suppresses the digest comparison...
  region_.XorBytes(0, 1, std::byte{0xa5});
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/0, /*vpage=*/0, /*node=*/0));
  // ...but hard evidence still convicts.
  layer_->OnWireCorrupt(/*wr_id=*/0, /*is_write=*/false);
  EXPECT_FALSE(layer_->VerifyFetch(/*wr_id=*/0, /*vpage=*/0, /*node=*/0));
  skip = false;
  region_.XorBytes(0, 1, std::byte{0xa5});  // Restore: digest matches again.
  EXPECT_TRUE(layer_->VerifyFetch(/*wr_id=*/0, /*vpage=*/0, /*node=*/0));
}

TEST_F(IntegrityLayerTest, DigestMemoFollowsRegionWrites) {
  auto fresh_hash = [&](uint64_t vpage) {
    std::vector<std::byte> page(kPageSize);
    region_.ReadBytes(PageStart(vpage), page.data(), page.size());
    return PageChecksum(page.data(), page.size(), IntegrityConfig{}.checksum_seed);
  };
  const uint64_t primed = layer_->digests_computed();
  EXPECT_EQ(primed, kPages);  // Priming hashes every page once.
  const uint64_t sum3 = layer_->ComputeChecksum(3);
  const uint64_t sum4 = layer_->ComputeChecksum(4);
  EXPECT_EQ(layer_->digests_computed(), primed);  // Unchanged pages: memo hits.

  // After a write, the digest is a fresh hash of the new bytes.
  region_.WriteObject<uint32_t>(PageStart(3) + 100, 0xfeedfaceu);
  EXPECT_FALSE(layer_->MemoisedChecksum(3).has_value());
  const uint64_t written = layer_->ComputeChecksum(3);
  EXPECT_NE(written, sum3);
  EXPECT_EQ(written, fresh_hash(3));
  EXPECT_EQ(layer_->digests_computed(), primed + 1);

  // Writing a byte and restoring it gives back the original digest.
  region_.XorBytes(PageStart(3) + 7, 1, std::byte{0x10});
  EXPECT_EQ(layer_->ComputeChecksum(3), fresh_hash(3));
  region_.XorBytes(PageStart(3) + 7, 1, std::byte{0x10});
  EXPECT_EQ(layer_->ComputeChecksum(3), written);

  // Writes to page 3 left page 4's memo valid.
  EXPECT_EQ(layer_->MemoisedChecksum(4), sum4);
  const uint64_t computed = layer_->digests_computed();
  EXPECT_EQ(layer_->ComputeChecksum(4), sum4);
  EXPECT_EQ(layer_->digests_computed(), computed);

  // page_shift 14: each simulated page spans four 4 KiB region pages, and a
  // write to any of them invalidates the memo.
  constexpr uint64_t kLargePage = 4 * kPageSize;
  IntegrityConfig cfg;
  cfg.verify = true;
  IntegrityLayer large(cfg, &region_, kPages / 4, kLargePage, kNodes, kReplicas);
  for (uint64_t region_page = 4; region_page < 8; ++region_page) {
    const uint64_t before = large.ComputeChecksum(1);
    ASSERT_EQ(large.MemoisedChecksum(1), before);
    region_.XorBytes(PageStart(region_page) + 5, 1, std::byte{0x81});
    EXPECT_FALSE(large.MemoisedChecksum(1).has_value()) << "region page " << region_page;
    std::vector<std::byte> page(kLargePage);
    region_.ReadBytes(kLargePage, page.data(), page.size());
    EXPECT_EQ(large.ComputeChecksum(1),
              PageChecksum(page.data(), page.size(), cfg.checksum_seed));
    EXPECT_NE(large.ComputeChecksum(1), before);
    // The other large page was not written.
    EXPECT_TRUE(large.MemoisedChecksum(0).has_value());
  }
}

TEST_F(IntegrityLayerTest, SlotPlacementMatchesPlacementFormula) {
  // Slot k of vpage lives on node (vpage + k) % num_nodes, mirroring
  // PlacementMap so the checker can cross-audit the two maps.
  for (uint64_t vpage = 0; vpage < kPages; ++vpage) {
    for (uint32_t slot = 0; slot < kReplicas; ++slot) {
      EXPECT_EQ(layer_->NodeOfSlot(vpage, slot), (vpage + slot) % kNodes);
    }
  }
}

}  // namespace
}  // namespace adios
