// Unified page table (DiLOS-style single-lookup table, §1/§3.3), rebuilt on
// packed atomic page-state words (docs/DATAPATH.md).
//
// One dense word per virtual page of the remote working set. Residency
// state, dirty/referenced/prefetched bits, pins, and the prefetch owner all
// live in a single CAS-transitioned 64-bit word (src/mem/page_state.h), so a
// fault needs exactly one lookup and a hot hit touches no shared mutable
// state. Derived counters are sharded: each counter shard owns the vpages
// with `vpage & shard_mask == shard`, so concurrent fault paths on different
// shards do not contend on one cache line (the invariant checker audits the
// per-shard sums against a full walk).
//
// The public residency view stays coarse: PageState{kRemote, kFetching,
// kPresent} is what workers and the prefetcher dispatch on. The fine
// lattice (kPresent/kMarked/kEvicting split) is visible through Read() for
// the clock, the checker, and the tests.

#ifndef ADIOS_SRC_MEM_PAGE_TABLE_H_
#define ADIOS_SRC_MEM_PAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/check.h"
#include "src/mem/page_state.h"
#include "src/mem/remote_heap.h"
#include "src/mem/resident_set.h"

namespace adios {

// Coarse residency states: the dispatch alphabet of the fault pipeline.
enum class PageState : uint8_t {
  kRemote = 0,    // Only the memory node has the page.
  kFetching = 1,  // A one-sided READ is in flight; a frame is reserved.
  kPresent = 2,   // Cached in local DRAM.
};

class PageTable {
 public:
  // clock_shards == 0 keeps the legacy dense clock hand (bit-identical to
  // the seed); > 0 builds a ResidentPageSet with that many clock shards.
  explicit PageTable(uint64_t num_pages, uint32_t clock_shards = 0)
      : words_(num_pages) {
    uint32_t counter_shards = 1;
    if (clock_shards > 0) {
      resident_set_ = std::make_unique<ResidentPageSet>(num_pages, clock_shards);
      counter_shards = resident_set_->shards();
    }
    shards_.resize(counter_shards);
    shard_mask_ = counter_shards - 1;
  }

  uint64_t num_pages() const { return words_.size(); }
  uint32_t counter_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t shard_of(uint64_t vpage) const {
    return static_cast<uint32_t>(vpage & shard_mask_);
  }
  const ResidentPageSet* resident_set() const { return resident_set_.get(); }

  // Fine-lattice snapshot of one page.
  PageInfo Info(uint64_t vpage) const {
    ADIOS_DCHECK(vpage < words_.size());
    return words_[vpage].Load();
  }

  // Coarse residency: the kPresent/kMarked/kEvicting split collapses to
  // kPresent (all three hold a frame and serve local reads).
  PageState StateOf(uint64_t vpage) const {
    ADIOS_DCHECK(vpage < words_.size());
    switch (words_[vpage].state()) {
      case PageWordState::kRemote:
        return PageState::kRemote;
      case PageWordState::kFetching:
        return PageState::kFetching;
      default:
        return PageState::kPresent;
    }
  }

  // Direct word access: the concurrency tests and adios-lint fixtures drive
  // the CAS lattice through this.
  PageStateWord& word(uint64_t vpage) {
    ADIOS_DCHECK(vpage < words_.size());
    return words_[vpage];
  }

  uint64_t resident_pages() const { return SumOf(&CounterShard::resident); }
  uint64_t fetching_pages() const { return SumOf(&CounterShard::fetching); }
  // Prefetch-cache population, split by state (audited against a full walk
  // by the invariant checker).
  uint64_t prefetched_fetching() const {
    return SumOf(&CounterShard::prefetched_fetching);
  }
  uint64_t prefetched_resident() const {
    return SumOf(&CounterShard::prefetched_resident);
  }

  // Per-shard counter views for the sharded frame-conservation audit.
  uint64_t resident_pages(uint32_t shard) const { return shards_[shard].resident; }
  uint64_t fetching_pages(uint32_t shard) const { return shards_[shard].fetching; }
  uint64_t prefetched_fetching(uint32_t shard) const {
    return shards_[shard].prefetched_fetching;
  }
  uint64_t prefetched_resident(uint32_t shard) const {
    return shards_[shard].prefetched_resident;
  }

  void MarkFetching(uint64_t vpage, bool prefetched = false, uint16_t owner = 0) {
    const bool ok = words_[vpage].TryLockForFetch(prefetched, owner);
    ADIOS_DCHECK(ok);
    (void)ok;
    CounterShard& c = shards_[shard_of(vpage)];
    ++c.fetching;
    if (prefetched) {
      ++c.prefetched_fetching;
    }
  }

  void MarkPresent(uint64_t vpage) {
    const PageInfo before = words_[vpage].Load();
    // Prefetched pages map cold (kMarked): the reference bit is earned by
    // the first demand touch, which also promotes them out of the prefetch
    // cache. Demand pages map referenced (kPresent).
    const bool ok = words_[vpage].TryMapPresent();
    ADIOS_DCHECK(ok);
    (void)ok;
    CounterShard& c = shards_[shard_of(vpage)];
    --c.fetching;
    ++c.resident;
    if (before.prefetched) {
      --c.prefetched_fetching;
      ++c.prefetched_resident;
    }
    if (resident_set_ != nullptr) {
      resident_set_->Insert(vpage);
    }
  }

  void MarkRemote(uint64_t vpage) {
    const PageInfo before = words_[vpage].Load();
    ADIOS_DCHECK(before.resident());
    // Two-step unmap: claim the eviction (resident -> kEvicting), then
    // commit it (kEvicting -> kRemote). Both CASes run back-to-back inside
    // this non-suspending call, so simulator fibers never observe kEvicting;
    // real-thread users drive TryMarkEvict/FinishEvict directly and may
    // suspend-free work in between.
    if (before.state != PageWordState::kEvicting) {
      const bool claimed = words_[vpage].TryClaimEvict();
      ADIOS_DCHECK(claimed);
      (void)claimed;
    }
    const bool ok = words_[vpage].FinishEvict();
    ADIOS_DCHECK(ok);
    (void)ok;
    CounterShard& c = shards_[shard_of(vpage)];
    --c.resident;
    if (before.prefetched) {
      --c.prefetched_resident;
    }
    if (resident_set_ != nullptr) {
      resident_set_->Remove(vpage);
    }
  }

  // Fetch abandoned after retry exhaustion: the page never mapped, so it
  // rolls back kFetching -> kRemote (a later fault may refetch it).
  void MarkFetchAborted(uint64_t vpage) {
    const PageInfo before = words_[vpage].Load();
    const bool ok = words_[vpage].TryAbortFetch();
    ADIOS_DCHECK(ok);
    (void)ok;
    CounterShard& c = shards_[shard_of(vpage)];
    --c.fetching;
    if (before.prefetched) {
      --c.prefetched_fetching;
    }
  }

  // Critical-chunk-first (docs/QOS.md): records that the faulting chunk of
  // an in-flight fetch landed. Idempotent; false when the page is not
  // kFetching (the fetch already settled) or the bit was already set (a
  // duplicated chunk completion). No derived counters change — the page is
  // still fetching.
  bool MarkPartial(uint64_t vpage) { return words_[vpage].TrySetPartial(); }

  // Leaves the prefetch cache without leaving residency: the first touch
  // (promotion) or a demand fault coalescing onto the in-flight fetch
  // (late). The page keeps its residency state; only the bit and counters
  // change.
  void ClearPrefetched(uint64_t vpage) {
    const PageInfo before = words_[vpage].Load();
    ADIOS_DCHECK(before.prefetched);
    const bool ok = words_[vpage].TryClearPrefetched();
    ADIOS_DCHECK(ok);
    (void)ok;
    CounterShard& c = shards_[shard_of(vpage)];
    if (before.state == PageWordState::kFetching) {
      --c.prefetched_fetching;
    } else {
      ADIOS_DCHECK(before.resident());
      --c.prefetched_resident;
    }
  }

  // Arms the clock bit (kMarked -> kPresent); a no-op — zero stores — when
  // the page is already referenced, which is the hot hit path.
  void SetReferenced(uint64_t vpage) { words_[vpage].TryReference(); }

  // Sets the dirty bit; a no-op without stores when already dirty.
  void SetDirty(uint64_t vpage) { words_[vpage].TrySetDirty(); }

  void Pin(uint64_t vpage) { words_[vpage].Pin(); }
  void Unpin(uint64_t vpage) { words_[vpage].Unpin(); }

  // Clock-algorithm victim selection: advances the hand, demoting referenced
  // pages (kPresent -> kMarked, the second chance), until an unreferenced
  // unpinned resident page is found. The scan is bounded by a full sweep
  // (2x the table / 2x the resident set: one pass to demote, one to pick);
  // num_pages() means nothing is evictable — every resident page is pinned
  // or mid-eviction — and the caller backs off and retries.
  uint64_t SelectVictim() {
    if (resident_set_ != nullptr) {
      return SelectVictimSharded();
    }
    const uint64_t n = words_.size();
    for (uint64_t scanned = 0; scanned < 2 * n; ++scanned) {
      const uint64_t v = hand_;
      hand_ = (hand_ + 1) % n;
      const PageInfo info = words_[v].Load();
      if (!info.resident() || info.state == PageWordState::kEvicting ||
          info.pins > 0) {
        continue;
      }
      if (info.state == PageWordState::kPresent) {
        words_[v].TryUnreference();
        continue;
      }
      return v;
    }
    return n;
  }

  // Test-only corruption hook: forces the word's state bits to the coarse
  // state, bypassing the lattice and the derived counters (the invariant
  // checker is expected to notice).
  void CorruptStateForTest(uint64_t vpage, PageState s) {
    PageWordState w = PageWordState::kRemote;
    if (s == PageState::kFetching) {
      w = PageWordState::kFetching;
    } else if (s == PageState::kPresent) {
      w = PageWordState::kPresent;
    }
    words_[vpage].CorruptStateForTest(w);
  }

 private:
  // Per-shard derived counters, cache-line-isolated. Plain (non-atomic)
  // because the simulator mutates them from one OS thread; the sharding
  // models — and the layout permits — per-shard ownership.
  struct alignas(64) CounterShard {
    uint64_t resident = 0;
    uint64_t fetching = 0;
    uint64_t prefetched_fetching = 0;
    uint64_t prefetched_resident = 0;
  };

  uint64_t SumOf(uint64_t CounterShard::*field) const {
    uint64_t sum = 0;
    for (const CounterShard& c : shards_) {
      sum += c.*field;
    }
    return sum;
  }

  // Sharded clock: rotate the hand shard on every call so pressure spreads
  // across the resident set. One in-sim evictor scans all shards round-robin;
  // the structure supports one hand per worker under real threads.
  uint64_t SelectVictimSharded() {
    const uint64_t n = words_.size();
    const uint64_t limit = 2 * resident_set_->capacity();
    const uint32_t shard_count = resident_set_->shards();
    uint64_t victim = n;
    uint64_t scanned = 0;
    while (scanned < limit) {
      const uint32_t shard = next_clock_shard_;
      next_clock_shard_ = (next_clock_shard_ + 1) % shard_count;
      uint64_t step = resident_set_->shard_slots();
      if (step > limit - scanned) {
        step = limit - scanned;
      }
      scanned += step;
      resident_set_->ScanShard(shard, step, [&](uint64_t vpage) {
        const PageInfo info = words_[vpage].Load();
        if (!info.resident() || info.state == PageWordState::kEvicting ||
            info.pins > 0) {
          return false;
        }
        if (info.state == PageWordState::kPresent) {
          words_[vpage].TryUnreference();
          return false;
        }
        victim = vpage;
        return true;
      });
      if (victim != n) {
        return victim;
      }
    }
    return n;
  }

  std::vector<PageStateWord> words_;
  std::vector<CounterShard> shards_;
  uint64_t shard_mask_ = 0;
  std::unique_ptr<ResidentPageSet> resident_set_;
  uint64_t hand_ = 0;            // Legacy dense clock (clock_shards == 0).
  uint32_t next_clock_shard_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_PAGE_TABLE_H_
