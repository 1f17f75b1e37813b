// Memory manager: local frame accounting, fetch protocol, and eviction
// support for the compute node (§3.3).
//
// The manager owns the page table and the free-frame budget. Fault handlers
// (implemented by the scheduler's workers, since the waiting mechanics differ
// per policy) drive the protocol:
//
//   StateOf(p) == kRemote  -> BeginFetch(p); post READ; AddFetchWaiter(p, fn);
//                             block per policy (busy-wait or yield)
//   StateOf(p) == kFetching-> AddFetchWaiter(p, fn); block per policy
//   StateOf(p) == kPresent -> Touch(p, is_write); proceed (MMU hit, no cost)
//
// On READ completion the polling context calls CompleteFetch(p), which maps
// the page and runs all registered waiter callbacks (each resumes one blocked
// unithread). Frames are reserved at BeginFetch and released by eviction.
//
// The paging datapath is lock-free by construction (docs/DATAPATH.md):
// page residency lives in per-page atomic state words, the free-frame budget
// can split into per-worker credit caches, and the clock can shard its hand.
// SyncGateNs() models the synchronization cost of the discipline in effect,
// so bench_scalability can compare a serialized baseline (one global lock)
// against the sharded-CAS design on identical workloads.

#ifndef ADIOS_SRC_MEM_MEMORY_MANAGER_H_
#define ADIOS_SRC_MEM_MEMORY_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/base/annotations.h"
#include "src/mem/page_table.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace adios {

// Synchronization-cost model for the paging datapath (docs/DATAPATH.md).
// The simulator's fibers cannot race, so the *cost* of the discipline is
// modeled explicitly; bench_scalability uses kGlobalLock as the serialized
// baseline the lock-free design is measured against.
enum class MmSyncModel : uint8_t {
  kNone = 0,        // No modeled synchronization cost (seed-identical).
  kGlobalLock = 1,  // Every paging operation serializes through one lock.
  kShardedCas = 2,  // Mutating operations pay one CAS; lookups stay free.
};

class MemoryManager {
 public:
  // Frame reservations tagged with this owner (re-silver bounce frames)
  // bypass the per-worker credit caches.
  static constexpr uint16_t kNoFrameOwner = 0xFFFF;

  struct Options {
    uint64_t total_pages = 0;  // Size of the remote working set.
    uint64_t local_pages = 0;  // Compute-node DRAM cache capacity.
    // Paging granularity: 12 = 4 KiB (the paper's compute nodes), 21 =
    // 2 MiB huge pages (whose 512x I/O amplification §5.2's Silo port
    // works around — reproduced in the ablation bench).
    uint32_t page_shift = 12;
    // Reclamation triggers when free frames drop below this fraction of
    // local_pages (the paper's default threshold is 15%).
    double reclaim_low_watermark = 0.15;
    // Reclamation stops once free frames exceed this fraction.
    double reclaim_high_watermark = 0.20;
    // Clock shards for the ResidentPageSet (docs/DATAPATH.md). 0 keeps the
    // legacy dense clock hand, bit-identical to the seed.
    uint32_t clock_shards = 0;
    // Per-worker free-frame credit cache size, refilled/spilled in batches
    // from the shared pool. 0 disables the caches (seed-identical).
    uint32_t frame_cache_size = 0;
    // Synchronization-cost model and its parameters (both in nanoseconds so
    // they stay decoupled from the CPU clock).
    MmSyncModel sync_model = MmSyncModel::kNone;
    uint64_t sync_hold_ns = 0;  // kGlobalLock: lock hold per paging op.
    uint64_t sync_cas_ns = 0;   // kShardedCas: cost per mutating op.
  };

  struct Stats {
    uint64_t faults = 0;            // Demand fetches started.
    uint64_t prefetches = 0;        // Prefetch fetches started.
    uint64_t shared_faults = 0;     // Faults coalesced onto an in-flight fetch.
    uint64_t evictions_clean = 0;
    uint64_t evictions_dirty = 0;
    uint64_t frame_stalls = 0;      // Fault had to wait for a free frame.
    uint64_t fetch_aborts = 0;      // Fetches abandoned after retry exhaustion.
    // Prefetch-cache outcome accounting (docs/PREFETCH.md). Every prefetched
    // page resolves to exactly one of hit / late / wasted (pages still in
    // the cache when the run ends stay unresolved).
    uint64_t prefetch_hits = 0;    // Touched while resident and untouched.
    uint64_t prefetch_late = 0;    // Demand fault coalesced onto the in-flight prefetch.
    uint64_t prefetch_wasted = 0;  // Evicted (or aborted) before any touch.
    // Free-frame credit-cache traffic (docs/DATAPATH.md).
    uint64_t frame_refills = 0;    // Batches moved shared pool -> a cache.
    uint64_t frame_spills = 0;     // Cache credits recalled to the shared pool.
    // Critical-chunk-first delivery (docs/QOS.md).
    uint64_t chunk_partials = 0;     // Critical chunks landed (ChunkReady).
    uint64_t chunk_early_wakes = 0;  // Waiters resumed off a partial page.
  };

  MemoryManager(Engine* engine, const Options& options);

  const Options& options() const { return options_; }
  PageTable& page_table() { return page_table_; }
  Stats& stats() { return stats_; }

  // Records frame-credit refill events (kFrameRefill). Null disables.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  ADIOS_NO_SUSPEND PageState StateOf(uint64_t vpage) const {
    return page_table_.StateOf(vpage);
  }

  // Paging-granularity helpers (fetch size = one page).
  uint64_t page_bytes() const { return 1ull << options_.page_shift; }
  uint64_t PageOfAddr(RemoteAddr addr) const { return addr >> options_.page_shift; }

  // Fault-handling pins: a pinned page is never selected for eviction.
  ADIOS_NO_SUSPEND void Pin(uint64_t vpage) { page_table_.Pin(vpage); }
  ADIOS_NO_SUSPEND void Unpin(uint64_t vpage) { page_table_.Unpin(vpage); }

  // Records an access to a resident page. The hot path — an already-
  // referenced, non-prefetched page — is an optimistic read: one atomic
  // load, zero stores (SetReferenced/SetDirty no-op without a CAS when the
  // bits are already in the target state). The first touch of a prefetched
  // page promotes it out of the prefetch cache and counts a prefetch hit.
  ADIOS_NO_SUSPEND void Touch(uint64_t vpage, bool write) {
    const PageInfo info = page_table_.Info(vpage);
    ADIOS_DCHECK(info.resident());
    if (info.prefetched) {
      page_table_.ClearPrefetched(vpage);
      PurgePrefetchPool(vpage);
      ++stats_.prefetch_hits;
      NotifyPrefetchOutcome(info.prefetch_owner, /*hit=*/true);
    }
    page_table_.SetReferenced(vpage);
    if (write) {
      page_table_.SetDirty(vpage);
    }
  }

  // Models the synchronization cost of the active discipline for one paging
  // operation; returns nanoseconds the CALLER must consume before acting.
  // Under kGlobalLock the op's slice of the single lock is reserved here,
  // synchronously — so concurrent ops serialize in simulated time even
  // though the fiber suspends only in the caller's Consume. Non-suspending.
  ADIOS_NO_SUSPEND uint64_t SyncGateNs(bool mutating) {
    switch (options_.sync_model) {
      case MmSyncModel::kNone:
        return 0;
      case MmSyncModel::kGlobalLock: {
        const uint64_t now = engine_->now();
        const uint64_t start = lock_free_at_ > now ? lock_free_at_ : now;
        lock_free_at_ = start + options_.sync_hold_ns;
        return (start - now) + options_.sync_hold_ns;
      }
      case MmSyncModel::kShardedCas:
        return mutating ? options_.sync_cas_ns : 0;
    }
    return 0;
  }

  // --- Frame budget ---

  // Free frames = shared pool + credits parked in per-worker caches; the
  // watermarks and HasFreeFrame() see both, so credits idling in a cache
  // never trigger reclamation or stall a fault spuriously.
  uint64_t free_frames() const { return options_.local_pages - used_frames_; }
  uint64_t used_frames() const { return used_frames_; }
  uint64_t shared_free_frames() const {
    return options_.local_pages - used_frames_ - cached_credits_;
  }
  uint64_t cached_frame_credits() const { return cached_credits_; }
  uint32_t frame_cache_credits(uint16_t owner) const {
    return owner < frame_cache_.size() ? frame_cache_[owner] : 0;
  }
  // Per-owner credit-cache view for the frame-conservation audit.
  const std::vector<uint32_t>& frame_caches() const { return frame_cache_; }
  bool HasFreeFrame() const { return used_frames_ < options_.local_pages; }
  bool BelowLowWatermark() const {
    return static_cast<double>(free_frames()) <
           options_.reclaim_low_watermark * static_cast<double>(options_.local_pages);
  }
  bool AboveHighWatermark() const {
    return static_cast<double>(free_frames()) >=
           options_.reclaim_high_watermark * static_cast<double>(options_.local_pages);
  }

  // Frame waiters: a callback run (FIFO) when a frame frees — used by
  // handlers that return control to their worker while waiting, so the
  // worker can keep resuming ready unithreads (deadlock avoidance).
  void AddFrameWaiter(std::function<void()> resume) {
    frame_callbacks_.push_back(std::move(resume));
  }
  size_t frame_waiter_count() const { return frame_callbacks_.size(); }

  // Releases one frame (eviction finished) and wakes one frame waiter.
  void ReleaseFrame();

  // Called by a woken frame waiter that leaves without taking a frame (its
  // page was fetched by another handler meanwhile): hands the wake-up on to
  // the next waiter while a frame is free. Each release wakes one waiter, so
  // without this the free frame would sit idle behind parked waiters that
  // nothing wakes once the reclaimer stops at its high watermark.
  void PassFrameWake() {
    if (HasFreeFrame()) {
      WakeFrameWaiter();
    }
  }

  // --- Re-silver bounce frames ---

  // Reserves a local frame with no page-table transition: the re-silver pass
  // stages a node-to-node page copy through compute-node DRAM (READ from a
  // surviving replica, WRITE to the recovering node) while the page itself
  // stays kRemote. The frame counts toward used_frames(); the frame-ownership
  // auditor balances it against Reclaimer::resilver_frames_held(). Returns
  // false when no frame is free (the caller backs off; re-silvering must
  // never beat demand fetches to the last frame).
  bool TryReserveBounceFrame() {
    if (!HasFreeFrame()) {
      return false;
    }
    TakeFrame(kNoFrameOwner);
    return true;
  }
  void ReleaseBounceFrame() { ReleaseFrame(); }

  // --- Fetch protocol ---

  // Reserves a frame and transitions kRemote -> kFetching. The caller must
  // have checked HasFreeFrame(). Prefetch fetches enter the prefetch cache;
  // both demand and prefetch fetches are tagged with the issuing worker,
  // which keys the free-frame credit cache (and, for prefetches, the
  // hit/waste feedback route).
  ADIOS_NO_SUSPEND void BeginFetch(uint64_t vpage, bool prefetch = false,
                                   uint16_t owner = 0);

  // Registers a callback to run when the in-flight fetch of `vpage` settles:
  // `ok` is true when the page mapped (CompleteFetch) and false when the
  // fetch was abandoned after retry exhaustion (AbortFetch). A waiter
  // registered with `early` = true additionally qualifies for critical-
  // chunk-first resume: ChunkReady runs it (ok = true) as soon as the
  // faulting chunk lands, without waiting for the tail. Writers must not
  // pass `early` — a write to a partially-landed page could race the
  // streaming tail.
  using FetchWaiter = std::function<void(bool ok)>;
  void AddFetchWaiter(uint64_t vpage, FetchWaiter resume, bool early = false);

  // Critical-chunk-first (docs/QOS.md): the demand chunk of `vpage`'s
  // in-flight fetch landed. Sets the page word's partial bit, pins the page
  // (the pin is held until the tail settles the fetch), and resumes every
  // early-flagged waiter. No-ops when the fetch already settled or the bit
  // is already set, so duplicated partial completions are harmless.
  ADIOS_NO_SUSPEND void ChunkReady(uint64_t vpage);

  // Transitions kFetching -> kPresent and runs (then clears) all waiters.
  ADIOS_NO_SUSPEND void CompleteFetch(uint64_t vpage);

  // Fetch retry budget exhausted: transitions kFetching -> kRemote, releases
  // the reserved frame, and runs all waiters with ok = false (the graceful-
  // degradation path — waiters fail their requests instead of refetching).
  ADIOS_NO_SUSPEND void AbortFetch(uint64_t vpage);

  // --- Prefetch cache ---

  // True when `vpage` is an untouched prefetched page in the given state.
  bool IsPrefetchedInFlight(uint64_t vpage) const {
    const PageInfo info = page_table_.Info(vpage);
    return info.prefetched && info.state == PageWordState::kFetching;
  }
  bool IsPrefetchedResident(uint64_t vpage) const {
    const PageInfo info = page_table_.Info(vpage);
    return info.prefetched && info.resident();
  }

  // A demand fault landed on a prefetch still in flight: the fault coalesces
  // onto the READ (never a duplicate post), the page leaves the prefetch
  // cache, and the prefetcher learns its stride was right but its window too
  // shallow — late feedback reports as a hit so the window grows.
  void MarkPrefetchLate(uint64_t vpage);

  // Routes prefetch-cache hit/waste outcomes for fetches tagged with
  // `owner` back to that worker's prefetcher (null clears).
  using PrefetchFeedback = std::function<void(bool hit)>;
  void set_prefetch_feedback(uint16_t owner, PrefetchFeedback fn);

  // Current first-choice victim-pool population (test/diagnostic view; the
  // pool is purged eagerly, so every entry is a live prefetched-resident
  // page).
  size_t prefetch_pool_size() const { return prefetch_pool_.size(); }

  // --- Eviction (driven by the reclaimer) ---

  // Victim selection: untouched prefetched-resident pages first (FIFO order
  // — the oldest unproven prefetch is the cheapest frame to reclaim), then
  // the page table's clock. page_table().num_pages() when nothing is
  // evictable (the caller backs off and retries).
  ADIOS_NO_SUSPEND uint64_t SelectVictim();

  // Unmaps `vpage`. Returns true when the page was dirty: the caller must
  // write it back and call ReleaseFrame() once the WRITE completes. Clean
  // pages release their frame immediately.
  ADIOS_NO_SUSPEND bool EvictPage(uint64_t vpage);

  // Hook invoked whenever the free-frame count falls below the low
  // watermark (the proactive reclaimer's kick).
  void set_reclaim_kick(std::function<void()> kick) { reclaim_kick_ = std::move(kick); }

  // Residency-transition hooks for the invariant checker (src/check/):
  // evict_hook fires after a page unmaps, map_hook after a fetched page maps
  // (before its waiters resume). Null clears.
  using PageHook = std::function<void(uint64_t vpage)>;
  void set_evict_hook(PageHook hook) { evict_hook_ = std::move(hook); }
  void set_map_hook(PageHook hook) { map_hook_ = std::move(hook); }

 private:
  void TakeFrame(uint16_t owner);
  // Moves a batch of free-frame credits from the shared pool into `owner`'s
  // cache (no-op when the pool is empty).
  void RefillFrameCache(uint16_t owner);
  // Recalls every cached credit to the shared pool — the slow path when a
  // taker finds both its cache and the pool empty while credits idle in
  // other caches.
  void SpillFrameCaches();
  void NotifyPrefetchOutcome(uint16_t owner, bool hit);
  void EnqueuePrefetchPool(uint64_t vpage);
  void PurgePrefetchPool(uint64_t vpage);
  // Runs the oldest yield-policy frame waiter's callback, if any.
  void WakeFrameWaiter();

  Engine* engine_;
  Options options_;
  PageTable page_table_;
  uint64_t used_frames_ = 0;
  std::deque<std::function<void()>> frame_callbacks_;
  struct FetchWaiterEntry {
    FetchWaiter fn;
    bool early = false;  // Eligible for chunk-level early resume.
  };
  std::unordered_map<uint64_t, std::vector<FetchWaiterEntry>> fetch_waiters_;
  std::function<void()> reclaim_kick_;
  PageHook evict_hook_;
  PageHook map_hook_;
  // First-choice victim pool: prefetched pages in map order. Purged eagerly
  // on promotion/late/evict (list + index give O(1) FIFO pops, O(1) random
  // erase, and iterator stability), so the pool cannot accumulate stale
  // entries under a prefetch-heavy workload.
  std::list<uint64_t> prefetch_pool_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> prefetch_pool_index_;
  std::vector<PrefetchFeedback> prefetch_feedback_;  // Indexed by owner.
  // Per-worker free-frame credit caches (indexed by owner) and the number of
  // credits currently parked across all of them. Invariant: used_frames_ +
  // shared_free_frames() + cached_credits_ == local_pages.
  std::vector<uint32_t> frame_cache_;
  uint64_t cached_credits_ = 0;
  // kGlobalLock sync model: simulated time at which the one lock frees.
  uint64_t lock_free_at_ = 0;
  Tracer* tracer_ = nullptr;
  Stats stats_;
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_MEMORY_MANAGER_H_
