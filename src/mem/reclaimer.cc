#include "src/mem/reclaimer.h"

namespace adios {

Reclaimer::Reclaimer(Engine* engine, CpuCore* core, MemoryManager* mm, QueuePair* qp,
                     Options options)
    : engine_(engine),
      core_(core),
      mm_(mm),
      qp_(qp),
      options_(options),
      sleep_queue_(engine),
      cq_wait_(engine) {}

void Reclaimer::Start() {
  mm_->set_reclaim_kick([this] {
    if (!kicked_) {
      kicked_ = true;
      // Proactive mode: the pinned thread notices immediately. Wake-up mode:
      // the notification goes through the scheduler, paying a delay.
      sleep_queue_.NotifyOne(options_.proactive ? 0 : options_.wakeup_delay_ns);
    }
  });
  qp_->cq()->set_on_push([this] {
    cq_wait_.NotifyAll();
    // A write-back completion must also wake an idle reclaimer so the frame
    // is released promptly even when no allocation kick is pending.
    sleep_queue_.NotifyAll();
  });
  engine_->SpawnFiber("reclaimer", [this] { Loop(); });
}

void Reclaimer::WritebackTargets(uint64_t vpage, std::vector<uint32_t>* out) {
  if (placement_ == nullptr) {
    out->push_back(0);
    return;
  }
  for (uint32_t slot = 0; slot < placement_->replicas(); ++slot) {
    const uint32_t node = placement_->ReplicaNode(vpage, slot);
    if (health_ != nullptr && health_->IsDead(node)) {
      // The dead replica misses this update; it must not serve reads until
      // the re-silver pass (or a later write-back) repairs it.
      placement_->MarkOutOfSync(vpage, node);
      continue;
    }
    out->push_back(node);
  }
}

void Reclaimer::FinishWbReplica(uint64_t vpage, bool success) {
  auto it = wb_pages_.find(vpage);
  ADIOS_DCHECK(it != wb_pages_.end());
  if (it == wb_pages_.end()) {
    return;
  }
  if (success) {
    ++it->second.succeeded;
  }
  ADIOS_DCHECK(it->second.remaining > 0);
  if (--it->second.remaining > 0) {
    return;  // Other replicas of this page are still in flight.
  }
  const bool none_ok = it->second.succeeded == 0;
  wb_pages_.erase(it);
  if (none_ok) {
    // No replica took the update: the write-back is lost outright (the
    // single-node abort of docs/FAULT_MODEL.md).
    ++writeback_aborts_;
  }
  ADIOS_DCHECK(writebacks_inflight_ > 0);
  --writebacks_inflight_;
  mm_->ReleaseFrame();
}

void Reclaimer::DrainWriteCompletions() {
  std::vector<Completion>& batch = wb_batch_;
  batch.resize(16);
  for (;;) {
    const size_t n = qp_->cq()->Poll(batch.size(), batch.begin());
    if (n == 0) {
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      const Completion& c = batch[i];
      if (IsScrubId(c.wr_id)) {
        OnScrubCompletion(c);
        continue;
      }
      if (IsResilverId(c.wr_id)) {
        OnResilverCompletion(c);
        continue;
      }
      ADIOS_DCHECK(c.type == WorkType::kWrite);
      if (options_.retry.enabled) {
        auto it = pending_wb_.find(c.wr_id);
        if (it == pending_wb_.end()) {
          continue;  // Late completion for a write-back that already settled.
        }
        if (!c.ok()) {
          if (health_ != nullptr) {
            health_->ReportError(c.node);
          }
          it->second.deadline.Cancel();
          RetryOrDropWriteback(c.wr_id);
          continue;
        }
        it->second.deadline.Cancel();
        pending_wb_.erase(it);
      }
      if (health_ != nullptr) {
        health_->ReportSuccess(c.node);
      }
      if (placement_ != nullptr) {
        // A successful write-back re-syncs a replica that had diverged.
        placement_->MarkInSync(WbPageOf(c.wr_id), WbNodeOf(c.wr_id));
      }
      if (integrity_ != nullptr) {
        // Refresh the slot's digest (and settle wire-poison state: a
        // corrupted WRITE leaves the stored copy poisoned).
        integrity_->OnReplicaWritten(c.wr_id, WbPageOf(c.wr_id), WbNodeOf(c.wr_id));
      }
      FinishWbReplica(WbPageOf(c.wr_id), /*success=*/true);
    }
    core_->Consume(30 * n);  // CQE processing.
  }
}

void Reclaimer::TrackWriteback(uint64_t wr_id) {
  PendingWriteback& pw = pending_wb_[wr_id];
  pw.attempts = 1;
  pw.backoff_ns = options_.retry.backoff_base_ns;
  pw.repost_pending = false;
  pw.deadline = engine_->ScheduleCancellable(
      options_.retry.timeout_ns, [this, wr_id] { OnWritebackDeadline(wr_id); });
}

void Reclaimer::OnWritebackDeadline(uint64_t wr_id) {
  auto it = pending_wb_.find(wr_id);
  if (it == pending_wb_.end()) {
    return;  // Settled just before the deadline event ran.
  }
  ++writeback_timeouts_;
  if (health_ != nullptr) {
    health_->ReportTimeout(WbNodeOf(wr_id));
  }
  RetryOrDropWriteback(wr_id);
}

void Reclaimer::RetryOrDropWriteback(uint64_t wr_id) {
  auto it = pending_wb_.find(wr_id);
  if (it == pending_wb_.end()) {
    return;
  }
  PendingWriteback& pw = it->second;
  if (pw.repost_pending) {
    return;  // An error completion raced with the deadline; one repost suffices.
  }
  if (pw.attempts > options_.retry.MaxRetriesFor(TrafficClass::kBackground)) {
    // Budget exhausted: drop this replica's WRITE. The replica diverges (the
    // re-silver pass repairs it later); the page's frame is released once
    // the remaining replicas settle. Single-node systems have exactly one
    // replica, so the drop is the legacy writeback_abort.
    pw.deadline.Cancel();
    pending_wb_.erase(it);
    const uint64_t vpage = WbPageOf(wr_id);
    if (placement_ != nullptr) {
      placement_->MarkOutOfSync(vpage, WbNodeOf(wr_id));
    }
    FinishWbReplica(vpage, /*success=*/false);
    // The drop happens off a timer, not a CQ push, so wake the loop
    // ourselves: it may be parked in cq_wait_ waiting for this write-back.
    cq_wait_.NotifyAll();
    sleep_queue_.NotifyAll();
    return;
  }
  ++pw.attempts;
  ++writeback_retries_;
  const SimDuration backoff = pw.backoff_ns;
  pw.backoff_ns = options_.retry.NextBackoff(backoff);
  pw.repost_pending = true;
  engine_->Schedule(backoff, [this, wr_id] { RepostWriteback(wr_id); });
}

void Reclaimer::RepostWriteback(uint64_t wr_id) {
  auto it = pending_wb_.find(wr_id);
  if (it == pending_wb_.end()) {
    return;
  }
  if (!qp_->PostWrite(mm_->page_bytes(), wr_id, WbNodeOf(wr_id), TrafficClass::kBackground)) {
    engine_->Schedule(1000, [this, wr_id] { RepostWriteback(wr_id); });
    return;
  }
  if (integrity_ != nullptr) {
    integrity_->OnWritePosted(wr_id, WbPageOf(wr_id));
  }
  it->second.repost_pending = false;
  it->second.deadline = engine_->ScheduleCancellable(
      options_.retry.timeout_ns, [this, wr_id] { OnWritebackDeadline(wr_id); });
}

void Reclaimer::Loop() {
  for (;;) {
    DrainWriteCompletions();
    if (!mm_->BelowLowWatermark()) {
      kicked_ = false;
      sleep_queue_.Wait();
      continue;
    }
    // Evict until comfortably above the watermark (hysteresis band).
    while (!mm_->AboveHighWatermark()) {
      DrainWriteCompletions();
      const uint64_t victim = mm_->SelectVictim();
      if (victim == mm_->page_table().num_pages()) {
        // Nothing evictable: frames are tied up in in-flight fetches or
        // write-backs. Wait for progress rather than spinning.
        if (writebacks_inflight_ > 0) {
          cq_wait_.Wait();
        } else {
          engine_->Wait(options_.scan_fail_retry_ns);
        }
        continue;
      }
      core_->Consume(options_.evict_cycles);
      // Synchronization-cost gate (docs/DATAPATH.md): the unmap is a
      // mutating paging op, so it pays the modeled lock/CAS cost.
      const uint64_t sync_ns = mm_->SyncGateNs(/*mutating=*/true);
      if (sync_ns > 0) {
        core_->ConsumeNs(sync_ns);
      }
      // adios-lint: ignore(suspend-safety) -- the Wait branches above always
      // `continue` and re-select; on this path `victim` is freshly selected,
      // and after EvictPage the single evictor keeps the frame reserved, so
      // it stays valid across the cq_wait_ suspensions below.
      const bool dirty = mm_->EvictPage(victim);
      ++pages_reclaimed_;
      if (dirty) {
        // Counted before the post: the frame is already off the books
        // (EvictPage kept it reserved), so frame conservation — resident +
        // fetching + writebacks + resilver == used — must see the write-back
        // even while this fiber is parked in cq_wait_ waiting for send-queue
        // space.
        ++writebacks_inflight_;
        while (wb_pages_.find(victim) != wb_pages_.end()) {
          // A previous fan-out of this page is still settling (re-fetch +
          // re-evict inside one retry window); its wr_ids would collide.
          cq_wait_.Wait();
          DrainWriteCompletions();
        }
        wb_targets_scratch_.clear();
        WritebackTargets(victim, &wb_targets_scratch_);
        if (wb_targets_scratch_.empty()) {
          // Every replica is dead: the update is lost now (each skipped
          // replica was marked divergent above).
          ++writeback_aborts_;
          ADIOS_DCHECK(writebacks_inflight_ > 0);
          --writebacks_inflight_;
          mm_->ReleaseFrame();
        } else {
          wb_pages_[victim] =
              WbPage{static_cast<uint32_t>(wb_targets_scratch_.size()), 0};
          for (const uint32_t node : wb_targets_scratch_) {
            const uint64_t wr_id = WbId(victim, node);
            while (!qp_->PostWrite(mm_->page_bytes(), wr_id, node, TrafficClass::kBackground)) {
              cq_wait_.Wait();
              DrainWriteCompletions();
            }
            if (integrity_ != nullptr) {
              // Snapshot the digest this WRITE carries at post time — the
              // page may be re-fetched and re-dirtied before it completes.
              integrity_->OnWritePosted(wr_id, victim);
            }
            if (options_.retry.enabled) {
              TrackWriteback(wr_id);
            }
          }
        }
      }
    }
  }
}

// --- Re-silver pass ---

void Reclaimer::BeginResilver(uint32_t node) {
  ADIOS_CHECK(placement_ != nullptr);
  std::vector<uint64_t> pages;
  placement_->CollectOutOfSync(node, &pages);
  if (pages.empty() && resilver_pending_[node] == 0) {
    // Nothing diverged (every missed update was healed by later demand
    // write-backs): the node is current the moment it is back.
    resilver_pending_.erase(node);
    if (health_ != nullptr) {
      health_->NotifyResilverDone(node);
    }
    return;
  }
  resilver_pending_[node] += pages.size();
  for (const uint64_t vpage : pages) {
    resilver_q_.push_back(ResilverWork{vpage, node, 0});
  }
  ArmResilverTick(ResilverIntervalNs());
}

void Reclaimer::RequestRepair(uint64_t vpage, uint32_t node) {
  if (placement_ == nullptr) {
    return;  // R1: no second copy exists; the slot stays unrepairable.
  }
  resilver_pending_[node] += 1;
  resilver_q_.push_back(ResilverWork{vpage, node, 0});
  ArmResilverTick(ResilverIntervalNs());
}

void Reclaimer::ArmResilverTick(SimDuration delay) {
  if (resilver_tick_armed_) {
    return;
  }
  resilver_tick_armed_ = true;
  engine_->Schedule(delay, [this] {
    resilver_tick_armed_ = false;
    ResilverTick();
  });
}

void Reclaimer::ResilverTick() {
  if (resilver_q_.empty()) {
    return;
  }
  if (mm_->BelowLowWatermark()) {
    // Demand fetches are fighting for frames; back off hard. Re-silvering is
    // repair bandwidth, never allocation pressure.
    ArmResilverTick(4 * ResilverIntervalNs());
    return;
  }
  const ResilverWork work = resilver_q_.front();
  resilver_q_.pop_front();
  StartResilverWork(work);
  if (!resilver_q_.empty()) {
    ArmResilverTick(ResilverIntervalNs());
  }
}

void Reclaimer::StartResilverWork(const ResilverWork& work) {
  const auto postpone = [this, &work] {
    resilver_q_.push_back(work);
    ArmResilverTick(ResilverIntervalNs());
  };
  if (placement_->InSync(work.vpage, work.target)) {
    // Healed meanwhile by a demand write-back; nothing to copy.
    FinishResilverPage(work.target);
    return;
  }
  if (health_ != nullptr && health_->IsDead(work.target)) {
    // The node relapsed mid-pass; drain the work item. A later recovery
    // starts a fresh pass that re-collects this page.
    FinishResilverPage(work.target);
    return;
  }
  switch (mm_->StateOf(work.vpage)) {
    case PageState::kPresent: {
      // The current bytes are resident: WRITE them straight to the target.
      // Pinned so eviction cannot pull the frame out from under the DMA.
      mm_->Pin(work.vpage);
      ResilverOp op;
      op.vpage = work.vpage;
      op.target = work.target;
      op.src = work.target;  // Unused on the resident path.
      op.attempts = work.attempts;
      op.pinned = true;
      PostResilverWrite(std::move(op));
      return;
    }
    case PageState::kFetching:
      // In demand flight; the mapped copy will be present (or remote again)
      // shortly. Revisit.
      postpone();
      return;
    case PageState::kRemote: {
      // Stage the copy through a bounce frame: READ from a surviving in-sync
      // replica, then WRITE to the target.
      constexpr uint32_t kNone = ~0u;
      uint32_t src = kNone;
      for (uint32_t slot = 0; slot < placement_->replicas(); ++slot) {
        const uint32_t node = placement_->ReplicaNode(work.vpage, slot);
        if (node == work.target || !placement_->InSync(work.vpage, node)) {
          continue;
        }
        if (health_ != nullptr && health_->IsDead(node)) {
          continue;
        }
        src = node;
        break;
      }
      if (src == kNone) {
        // No live in-sync source: the page cannot be repaired this pass.
        ++resilver_failures_;
        FinishResilverPage(work.target);
        return;
      }
      const uint64_t wr_id = ResilverId(work.vpage, src);
      if (resilver_ops_.find(wr_id) != resilver_ops_.end()) {
        postpone();  // Another copy of this page is mid-flight via this src.
        return;
      }
      if (!mm_->TryReserveBounceFrame()) {
        postpone();  // No free frame; demand traffic wins.
        return;
      }
      if (!qp_->PostRead(mm_->page_bytes(), wr_id, src, TrafficClass::kBackground)) {
        mm_->ReleaseBounceFrame();
        postpone();
        return;
      }
      ++resilver_frames_;
      ResilverOp op;
      op.vpage = work.vpage;
      op.target = work.target;
      op.src = src;
      op.attempts = work.attempts;
      op.has_frame = true;
      op.deadline = engine_->ScheduleCancellable(
          ResilverTimeoutNs(), [this, wr_id] { OnResilverDeadline(wr_id); });
      resilver_ops_[wr_id] = std::move(op);
      return;
    }
  }
}

void Reclaimer::PostResilverWrite(ResilverOp op) {
  const uint64_t wr_id = ResilverId(op.vpage, op.target);
  if (resilver_ops_.find(wr_id) != resilver_ops_.end() ||
      !qp_->PostWrite(mm_->page_bytes(), wr_id, op.target, TrafficClass::kBackground)) {
    // wr_id busy (duplicate work item) or QP full; retry shortly. Resources
    // (pin / bounce frame) stay held by the carried op.
    engine_->Schedule(1000, [this, op] { PostResilverWrite(op); });
    return;
  }
  if (integrity_ != nullptr) {
    integrity_->OnWritePosted(wr_id, op.vpage);
  }
  op.write_stage = true;
  op.deadline = engine_->ScheduleCancellable(
      ResilverTimeoutNs(), [this, wr_id] { OnResilverDeadline(wr_id); });
  resilver_ops_[wr_id] = std::move(op);
}

void Reclaimer::OnResilverCompletion(const Completion& c) {
  auto it = resilver_ops_.find(c.wr_id);
  if (it == resilver_ops_.end()) {
    return;  // Late completion of an op that timed out and was abandoned.
  }
  ResilverOp op = std::move(it->second);
  op.deadline.Cancel();
  resilver_ops_.erase(it);
  if (!c.ok()) {
    if (health_ != nullptr) {
      health_->ReportError(c.node);
    }
    AbandonOrRequeueResilver(std::move(op));
    return;
  }
  if (health_ != nullptr) {
    health_->ReportSuccess(c.node);
  }
  if (!op.write_stage) {
    // READ landed in the bounce frame. Verify the source payload before
    // propagating it: re-silvering from a corrupt copy would overwrite the
    // target's replica with garbage. The recompute-vs-digest comparison is
    // only meaningful while the page is still remote (a resident copy may
    // legitimately be newer than any stored replica); wire/poison evidence
    // is exact either way.
    if (integrity_ != nullptr) {
      const bool clean = integrity_->CheckPayload(
          c.wr_id, op.vpage, op.src,
          /*recompute=*/mm_->StateOf(op.vpage) == PageState::kRemote);
      if (!clean) {
        if (tracer_ != nullptr) {
          tracer_->Record(engine_->now(), 0, TraceEvent::kCorrupt, op.src);
        }
        placement_->MarkOutOfSync(op.vpage, op.src);
        if (health_ != nullptr) {
          health_->ReportCorruption(op.src);
        }
        integrity_->OnCorruptionDetected(op.vpage, op.src, /*from_scrub=*/false);
        // Requeue the target work item: the next attempt picks a different
        // in-sync source (or gives up when none remains).
        AbandonOrRequeueResilver(std::move(op));
        return;
      }
    }
    // Push it to the recovering node.
    PostResilverWrite(std::move(op));
    return;
  }
  // WRITE landed: the replica is current again.
  ReleaseResilverResources(op);
  placement_->MarkInSync(op.vpage, op.target);
  if (integrity_ != nullptr) {
    integrity_->OnReplicaWritten(c.wr_id, op.vpage, op.target);
  }
  ++pages_resilvered_;
  FinishResilverPage(op.target);
}

void Reclaimer::OnResilverDeadline(uint64_t wr_id) {
  auto it = resilver_ops_.find(wr_id);
  if (it == resilver_ops_.end()) {
    return;
  }
  ResilverOp op = std::move(it->second);
  resilver_ops_.erase(it);
  if (health_ != nullptr) {
    health_->ReportTimeout(op.write_stage ? op.target : op.src);
  }
  AbandonOrRequeueResilver(std::move(op));
}

void Reclaimer::AbandonOrRequeueResilver(ResilverOp op) {
  ReleaseResilverResources(op);
  if (op.attempts + 1 >= options_.resilver_max_attempts) {
    // Attempt budget spent; the replica stays divergent. A later recovery
    // pass (or a demand write-back) gets another chance.
    ++resilver_failures_;
    FinishResilverPage(op.target);
    return;
  }
  resilver_q_.push_back(ResilverWork{op.vpage, op.target, op.attempts + 1});
  ArmResilverTick(ResilverIntervalNs());
}

void Reclaimer::ReleaseResilverResources(ResilverOp& op) {
  if (op.pinned) {
    mm_->Unpin(op.vpage);
    op.pinned = false;
  }
  if (op.has_frame) {
    ADIOS_DCHECK(resilver_frames_ > 0);
    --resilver_frames_;
    mm_->ReleaseBounceFrame();
    op.has_frame = false;
  }
}

// --- Background scrubber ---

void Reclaimer::StartScrub(SimTime until) {
  ADIOS_CHECK(integrity_ != nullptr);
  scrub_until_ = until;
  ArmScrubTick(ScrubIntervalNs());
}

void Reclaimer::ArmScrubTick(SimDuration delay) {
  if (scrub_tick_armed_) {
    return;
  }
  scrub_tick_armed_ = true;
  engine_->Schedule(delay, [this] {
    scrub_tick_armed_ = false;
    ScrubTick();
  });
}

void Reclaimer::OpenScrubPass() {
  scrub_pass_open_ = true;
  scrub_issued_in_pass_ = 0;
  scrub_finds_in_pass_ = 0;
  ++scrub_pass_;
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), 0, TraceEvent::kScrubStart,
                    static_cast<uint32_t>(scrub_pass_));
  }
}

void Reclaimer::CloseScrubPass() {
  scrub_pass_open_ = false;
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), 0, TraceEvent::kScrubDone, scrub_finds_in_pass_);
  }
}

void Reclaimer::ScrubTick() {
  if (engine_->now() >= scrub_until_) {
    // Horizon reached: stop the tick chain so the engine can drain. In-
    // flight scrub reads still settle through their completions.
    if (scrub_pass_open_) {
      CloseScrubPass();
    }
    return;
  }
  if (mm_->BelowLowWatermark()) {
    // Same rule as re-silvering: scrubbing is repair bandwidth, never
    // allocation pressure. Back off hard under frame contention.
    ArmScrubTick(4 * ScrubIntervalNs());
    return;
  }
  // Advance the (vpage, slot) cursor to the next scrubbable stored copy:
  // remote (no resident version supersedes it), in sync (divergent slots are
  // the re-silver pass's job), on a live node, and not already mid-scrub.
  const uint32_t slots_per_page = placement_ != nullptr ? placement_->replicas() : 1;
  const uint64_t num_pages = mm_->page_table().num_pages();
  const uint64_t total_slots = num_pages * slots_per_page;
  uint64_t wr_id = 0;
  uint64_t vpage = 0;
  uint32_t node = 0;
  bool found = false;
  for (uint64_t probed = 0; probed < total_slots; ++probed) {
    vpage = scrub_cursor_page_;
    const uint32_t slot = scrub_cursor_slot_;
    if (++scrub_cursor_slot_ >= slots_per_page) {
      scrub_cursor_slot_ = 0;
      if (++scrub_cursor_page_ >= num_pages) {
        scrub_cursor_page_ = 0;
      }
    }
    if (mm_->StateOf(vpage) != PageState::kRemote) {
      continue;
    }
    node = placement_ != nullptr ? placement_->ReplicaNode(vpage, slot) : 0;
    if (placement_ != nullptr && !placement_->InSync(vpage, node)) {
      continue;
    }
    if (health_ != nullptr && health_->IsDead(node)) {
      continue;
    }
    wr_id = ScrubId(vpage, node);
    if (scrub_ops_.find(wr_id) != scrub_ops_.end()) {
      continue;
    }
    found = true;
    break;
  }
  if (!found) {
    // Nothing cold to scrub right now (everything resident or in flight);
    // retry after a full pass gap.
    ArmScrubTick(options_.scrub_pass_gap_ns);
    return;
  }
  if (!mm_->TryReserveBounceFrame()) {
    ArmScrubTick(4 * ScrubIntervalNs());
    return;
  }
  if (!qp_->PostRead(mm_->page_bytes(), wr_id, node, TrafficClass::kBackground)) {
    mm_->ReleaseBounceFrame();
    ArmScrubTick(ScrubIntervalNs());
    return;
  }
  if (!scrub_pass_open_) {
    OpenScrubPass();
  }
  ++scrub_frames_;
  scrub_ops_[wr_id] = ScrubOp{vpage, node};
  if (++scrub_issued_in_pass_ >= options_.scrub_batch_pages) {
    CloseScrubPass();
    ArmScrubTick(options_.scrub_pass_gap_ns);
  } else {
    ArmScrubTick(ScrubIntervalNs());
  }
}

void Reclaimer::OnScrubCompletion(const Completion& c) {
  auto it = scrub_ops_.find(c.wr_id);
  if (it == scrub_ops_.end()) {
    return;  // Duplicate completion of a scrub read (injector race).
  }
  const ScrubOp op = it->second;
  scrub_ops_.erase(it);
  ADIOS_DCHECK(scrub_frames_ > 0);
  --scrub_frames_;
  mm_->ReleaseBounceFrame();
  if (!c.ok()) {
    // The scrub read itself failed (drop/NAK); the node-health machinery
    // owns flaky-node handling, the scrubber just moves on. The cursor
    // revisits this page next sweep.
    if (health_ != nullptr) {
      health_->ReportError(c.node);
    }
    return;
  }
  if (health_ != nullptr) {
    health_->ReportSuccess(c.node);
  }
  integrity_->OnScrubPage();
  ++scrub_pages_scanned_;
  // The digest comparison only means something while the stored copy is
  // still the authoritative version (page remote); wire/poison evidence is
  // exact regardless.
  const bool clean = integrity_->CheckPayload(
      c.wr_id, op.vpage, op.node,
      /*recompute=*/mm_->StateOf(op.vpage) == PageState::kRemote);
  if (clean) {
    return;
  }
  ++scrub_finds_in_pass_;
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), 0, TraceEvent::kCorrupt, op.node);
  }
  if (placement_ != nullptr) {
    placement_->MarkOutOfSync(op.vpage, op.node);
  }
  if (health_ != nullptr) {
    health_->ReportCorruption(op.node);
  }
  integrity_->OnCorruptionDetected(op.vpage, op.node, /*from_scrub=*/true);
}

void Reclaimer::FinishResilverPage(uint32_t target) {
  auto it = resilver_pending_.find(target);
  ADIOS_DCHECK(it != resilver_pending_.end() && it->second > 0);
  if (it == resilver_pending_.end() || it->second == 0) {
    return;
  }
  if (--it->second == 0) {
    resilver_pending_.erase(it);
    if (health_ != nullptr) {
      // Ignored unless the node is still kResilvering (it may have relapsed
      // to kDead mid-pass; the next recovery re-collects).
      health_->NotifyResilverDone(target);
    }
  }
}

}  // namespace adios
