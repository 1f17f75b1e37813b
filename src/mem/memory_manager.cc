#include "src/mem/memory_manager.h"

namespace adios {

MemoryManager::MemoryManager(Engine* engine, const Options& options)
    : engine_(engine),
      options_(options),
      page_table_(options.total_pages, options.clock_shards) {
  ADIOS_CHECK(options.total_pages > 0);
  ADIOS_CHECK(options.local_pages > 0);
  ADIOS_CHECK(options.reclaim_low_watermark >= 0.0);
  ADIOS_CHECK(options.reclaim_high_watermark >= options.reclaim_low_watermark);
}

void MemoryManager::TakeFrame(uint16_t owner) {
  ADIOS_CHECK(used_frames_ < options_.local_pages);
  if (options_.frame_cache_size > 0) {
    if (owner != kNoFrameOwner) {
      if (owner >= frame_cache_.size()) {
        frame_cache_.resize(owner + 1, 0);
      }
      if (frame_cache_[owner] == 0) {
        if (shared_free_frames() == 0 && cached_credits_ > 0) {
          SpillFrameCaches();
        }
        RefillFrameCache(owner);
      }
      if (frame_cache_[owner] > 0) {
        --frame_cache_[owner];
        --cached_credits_;
      }
      // Else the shared pool serves directly: used < local and no credits
      // anywhere cached means shared_free_frames() > 0.
    } else if (shared_free_frames() == 0 && cached_credits_ > 0) {
      // Bounce frames bypass the caches; recall idle credits if the shared
      // pool ran dry.
      SpillFrameCaches();
    }
  }
  ++used_frames_;
  if (BelowLowWatermark() && reclaim_kick_) {
    reclaim_kick_();
  }
}

void MemoryManager::RefillFrameCache(uint16_t owner) {
  uint64_t take = options_.frame_cache_size;
  const uint64_t shared = shared_free_frames();
  if (take > shared) {
    take = shared;
  }
  if (take == 0) {
    return;
  }
  frame_cache_[owner] += static_cast<uint32_t>(take);
  cached_credits_ += take;
  ++stats_.frame_refills;
  if (tracer_ != nullptr) {
    // System-level event: request id 0 by the trace grammar.
    tracer_->Record(engine_->now(), 0, TraceEvent::kFrameRefill,
                    static_cast<uint32_t>(take));
  }
}

void MemoryManager::SpillFrameCaches() {
  uint64_t spilled = 0;
  for (uint32_t& cache : frame_cache_) {
    spilled += cache;
    cache = 0;
  }
  if (spilled == 0) {
    return;
  }
  ADIOS_DCHECK(cached_credits_ >= spilled);
  cached_credits_ -= spilled;
  ++stats_.frame_spills;
}

void MemoryManager::ReleaseFrame() {
  ADIOS_CHECK(used_frames_ > 0);
  --used_frames_;
  WakeFrameWaiter();
}

void MemoryManager::WakeFrameWaiter() {
  if (!frame_callbacks_.empty()) {
    auto resume = std::move(frame_callbacks_.front());
    frame_callbacks_.pop_front();
    resume();
  }
}

void MemoryManager::BeginFetch(uint64_t vpage, bool prefetch, uint16_t owner) {
  TakeFrame(owner);
  page_table_.MarkFetching(vpage, prefetch, owner);
  if (prefetch) {
    ++stats_.prefetches;
  } else {
    ++stats_.faults;
  }
}

void MemoryManager::MarkPrefetchLate(uint64_t vpage) {
  ADIOS_DCHECK(IsPrefetchedInFlight(vpage));
  const uint16_t owner = page_table_.Info(vpage).prefetch_owner;
  page_table_.ClearPrefetched(vpage);
  ++stats_.prefetch_late;
  // Late counts as stride-correct feedback: had the window been deeper the
  // page would have arrived in time, so the window should grow, not shrink.
  NotifyPrefetchOutcome(owner, /*hit=*/true);
}

void MemoryManager::set_prefetch_feedback(uint16_t owner, PrefetchFeedback fn) {
  if (prefetch_feedback_.size() <= owner) {
    prefetch_feedback_.resize(owner + 1);
  }
  prefetch_feedback_[owner] = std::move(fn);
}

void MemoryManager::NotifyPrefetchOutcome(uint16_t owner, bool hit) {
  if (owner < prefetch_feedback_.size() && prefetch_feedback_[owner]) {
    prefetch_feedback_[owner](hit);
  }
}

void MemoryManager::EnqueuePrefetchPool(uint64_t vpage) {
  prefetch_pool_.push_back(vpage);
  prefetch_pool_index_[vpage] = std::prev(prefetch_pool_.end());
}

void MemoryManager::PurgePrefetchPool(uint64_t vpage) {
  auto it = prefetch_pool_index_.find(vpage);
  if (it == prefetch_pool_index_.end()) {
    return;
  }
  prefetch_pool_.erase(it->second);
  prefetch_pool_index_.erase(it);
}

uint64_t MemoryManager::SelectVictim() {
  // Prefetched-but-untouched frames are speculative: evicting one costs a
  // possible future fault, evicting a demand-proven resident page costs a
  // certain refault. Drain the prefetch pool (oldest first) before touching
  // the clock. The pool is purged eagerly on promotion/late/evict, so every
  // entry is a live prefetched-resident page; only pins defer one.
  size_t scan = prefetch_pool_.size();
  while (scan-- > 0 && !prefetch_pool_.empty()) {
    const uint64_t vpage = prefetch_pool_.front();
    const PageInfo info = page_table_.Info(vpage);
    ADIOS_DCHECK(info.prefetched && info.resident());
    if (info.pins > 0) {
      // A waiter is about to touch it (mapped but not yet resumed); it will
      // promote shortly. Rotate it to the back in case it never does.
      prefetch_pool_.splice(prefetch_pool_.end(), prefetch_pool_,
                            prefetch_pool_.begin());
      continue;
    }
    return vpage;
  }
  return page_table_.SelectVictim();
}

void MemoryManager::AddFetchWaiter(uint64_t vpage, FetchWaiter resume, bool early) {
  ADIOS_DCHECK(StateOf(vpage) == PageState::kFetching);
  fetch_waiters_[vpage].push_back(FetchWaiterEntry{std::move(resume), early});
}

void MemoryManager::ChunkReady(uint64_t vpage) {
  // MarkPartial fails (no store) when the fetch already settled — a late or
  // duplicated partial completion — or when the bit is already set.
  if (!page_table_.MarkPartial(vpage)) {
    return;
  }
  // Pin until the tail settles the fetch: an early-resumed unithread is
  // reading the chunk while the rest of the page streams, and abort/failover
  // paths must see the page as in-use.
  page_table_.Pin(vpage);
  ++stats_.chunk_partials;
  auto it = fetch_waiters_.find(vpage);
  if (it == fetch_waiters_.end()) {
    return;
  }
  // Resume early-flagged waiters now; the rest (writers, policy-blocked
  // handlers) stay registered for CompleteFetch/AbortFetch.
  std::vector<FetchWaiterEntry> pending;
  std::vector<FetchWaiter> wake;
  pending.reserve(it->second.size());
  for (auto& entry : it->second) {
    if (entry.early) {
      wake.push_back(std::move(entry.fn));
    } else {
      pending.push_back(std::move(entry));
    }
  }
  if (pending.empty()) {
    fetch_waiters_.erase(it);
  } else {
    it->second = std::move(pending);
  }
  stats_.chunk_early_wakes += wake.size();
  for (auto& fn : wake) {
    fn(/*ok=*/true);
  }
}

void MemoryManager::CompleteFetch(uint64_t vpage) {
  const bool was_partial = page_table_.Info(vpage).partial;
  page_table_.MarkPresent(vpage);  // Clears the partial bit.
  if (was_partial) {
    page_table_.Unpin(vpage);  // The ChunkReady pin: the tail has landed.
  }
  if (page_table_.Info(vpage).prefetched) {
    // Joined the prefetch cache: first in line for eviction until touched.
    EnqueuePrefetchPool(vpage);
  }
  if (map_hook_) {
    map_hook_(vpage);  // Unpoison before any waiter can read the page.
  }
  auto it = fetch_waiters_.find(vpage);
  if (it == fetch_waiters_.end()) {
    return;
  }
  std::vector<FetchWaiterEntry> waiters = std::move(it->second);
  fetch_waiters_.erase(it);
  for (auto& entry : waiters) {
    entry.fn(/*ok=*/true);
  }
}

void MemoryManager::AbortFetch(uint64_t vpage) {
  ADIOS_CHECK(StateOf(vpage) == PageState::kFetching);
  const PageInfo info = page_table_.Info(vpage);
  if (info.partial) {
    // Abort mid-partial (failover rerouted the fetch): drop the ChunkReady
    // pin before rolling back so neither the pin nor the bit can leak.
    page_table_.Unpin(vpage);
  }
  if (info.prefetched) {
    // The speculation never landed; charge it as waste so the window shrinks.
    ++stats_.prefetch_wasted;
    NotifyPrefetchOutcome(info.prefetch_owner, /*hit=*/false);
  }
  page_table_.MarkFetchAborted(vpage);  // Also clears the partial bit.
  ++stats_.fetch_aborts;
  std::vector<FetchWaiterEntry> waiters;
  auto it = fetch_waiters_.find(vpage);
  if (it != fetch_waiters_.end()) {
    waiters = std::move(it->second);
    fetch_waiters_.erase(it);
  }
  // The reserved frame returns to the pool (this also wakes frame waiters).
  ReleaseFrame();
  for (auto& entry : waiters) {
    entry.fn(/*ok=*/false);
  }
}

bool MemoryManager::EvictPage(uint64_t vpage) {
  const PageInfo info = page_table_.Info(vpage);
  ADIOS_CHECK(info.resident());
  if (info.prefetched) {
    // Evicted before any touch: the prefetch was wasted bandwidth and a
    // wasted frame; the owner's window shrinks.
    ++stats_.prefetch_wasted;
    NotifyPrefetchOutcome(info.prefetch_owner, /*hit=*/false);
    PurgePrefetchPool(vpage);
  }
  const bool dirty = info.dirty;
  page_table_.MarkRemote(vpage);
  if (evict_hook_) {
    evict_hook_(vpage);
  }
  if (dirty) {
    ++stats_.evictions_dirty;
    return true;  // Frame stays reserved until the write-back completes.
  }
  ++stats_.evictions_clean;
  ReleaseFrame();
  return false;
}

}  // namespace adios
