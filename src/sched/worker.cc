#include "src/sched/worker.h"

#include "src/sched/dispatcher.h"

namespace adios {

Worker::Worker(uint32_t index, Engine* engine, CpuCore* core, MemoryManager* mm,
               UnithreadPool* pool, QueuePair* mem_qp, QueuePair* client_qp,
               const SchedConfig& config, HandlerFn handler, ReplyFn on_reply)
    : index_(index),
      engine_(engine),
      core_(core),
      mm_(mm),
      pool_(pool),
      mem_qp_(mem_qp),
      client_qp_(client_qp),
      cfg_(config),
      handler_(std::move(handler)),
      on_reply_(std::move(on_reply)),
      events_(engine),
      mem_cq_wait_(engine),
      client_cq_wait_(engine),
      prefetcher_(MakePrefetcher(config.prefetch_policy, config.prefetch_window,
                                 config.prefetch_history, static_cast<uint16_t>(index))),
      rng_(config.seed * 7919 + index),
      ops_(engine, this, config.retry) {
  mem_qp_->cq()->set_on_push([this] {
    mem_cq_wait_.NotifyAll();
    events_.NotifyAll();
  });
  if (!cfg_.polling_delegation) {
    client_qp_->cq()->set_on_push([this] { client_cq_wait_.NotifyAll(); });
  }
  // Prefetch-cache outcomes for fetches this worker issued route back to its
  // detector's window adaptation — even when another worker (or the
  // reclaimer) resolves the page.
  mm_->set_prefetch_feedback(static_cast<uint16_t>(index), [this](bool hit) {
    if (hit) {
      prefetcher_->OnPrefetchHit();
    } else {
      prefetcher_->OnPrefetchWaste();
    }
  });
}

void Worker::Start() {
  Fiber* fiber = engine_->SpawnFiber("worker-" + std::to_string(index_), [this] { Loop(); });
  fiber_ctx_ = fiber->ctx();
}

void Worker::Assign(RunItem* item) {
  ADIOS_DCHECK(CanAccept());
  assigned_q_.push_back(item);
  events_.NotifyAll();
}

RunItem* Worker::TrySteal() {
  Worker* victim = nullptr;
  size_t most = 0;
  for (Worker* peer : peers_) {
    if (peer != this && peer->assigned_q_.size() > most) {
      most = peer->assigned_q_.size();
      victim = peer;
    }
  }
  if (victim == nullptr) {
    return nullptr;
  }
  ++steals_;
  // Steal the newest unstarted request: the victim keeps FIFO order for the
  // items it will serve itself.
  RunItem* item = victim->assigned_q_.back();
  victim->assigned_q_.pop_back();
  ADIOS_DCHECK(!item->started);
  return item;
}

void Worker::EnqueueReady(RunItem* item) {
  ready_.push_back(item);
  events_.NotifyAll();
}

void Worker::UnithreadMain(void* arg) {
  auto* item = static_cast<RunItem*>(arg);
  Worker* worker = item->home;
  ADIOS_CHECK(worker != nullptr);
  worker->handler_(item->req, *worker);
}

void Worker::Loop() {
  for (;;) {
    core_->Consume(cfg_.worker_loop_cycles);
    // Poll the NIC's queue once before starting new unithreads (Fig. 5,
    // step 7's precondition).
    DrainMemCq();
    if (!ready_.empty()) {
      RunItem* item = ready_.front();
      ready_.pop_front();
      RunItemNow(item);
      continue;
    }
    // Fresh requests and preempted unithreads alternate (Shinjuku-style
    // FIFO approximation): a preempted task gives way to at most one newer
    // request per round, so it cannot starve under sustained load.
    const bool run_preempted =
        !preempted_.empty() && (assigned_q_.empty() || prefer_preempted_);
    if (run_preempted) {
      RunItem* item = preempted_.front();
      preempted_.pop_front();
      prefer_preempted_ = false;
      RunItemNow(item);
      continue;
    }
    if (!assigned_q_.empty()) {
      RunItem* item = assigned_q_.front();
      assigned_q_.pop_front();
      prefer_preempted_ = true;
      dispatcher_->Poke();  // Mailbox capacity freed.
      RunItemNow(item);
      continue;
    }
    if (cfg_.dispatch_policy == DispatchPolicy::kWorkStealing) {
      core_->Consume(cfg_.steal_cycles);  // Peer-queue scan (§3.4's objection).
      RunItem* stolen = TrySteal();
      if (stolen != nullptr) {
        RunItemNow(stolen);
        continue;
      }
    }
    events_.Wait();
  }
}

void Worker::RunItemNow(RunItem* item) {
  ADIOS_DCHECK(running_ == nullptr);
  running_ = item;
  item->home = this;
  UnithreadContext* ctx = item->ctx();
  ctx->parent = fiber_ctx_;
  core_->Consume(cfg_.fault_policy == FaultPolicy::kKernelYield ? cfg_.kernel_ctx_switch_cycles
                                                                : cfg_.ctx_switch_cycles);
  if (!item->started) {
    item->started = true;
    item->req->start_time = engine_->now();
    // kStart carries the same timestamp as req->start_time (the span
    // builder's queue segment must equal RequestSample::queue_ns), so it is
    // recorded before the kernel RX-path charge below.
    if (tracer_ != nullptr) {
      tracer_->Record(engine_->now(), item->req->id, TraceEvent::kStart, index_);
    }
    if (cfg_.kernel_request_extra_cycles > 0) {
      // Kernel-based system: socket/syscall RX path before the handler runs.
      core_->Consume(cfg_.kernel_request_extra_cycles);
    }
  } else if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), item->req->id, TraceEvent::kResume, index_);
  }
  item->quantum_start = engine_->now();
  ctx->state = ContextState::kRunning;
  ++ctx->switch_count;
  engine_->RawSwitch(fiber_ctx_, ctx);
  running_ = nullptr;
  if (ctx->finished()) {
    FinishRequest(item);
  } else {
    ++yields_;
  }
}

void Worker::FinishRequest(RunItem* item) {
  Request* req = item->req;
  if (cfg_.kernel_jitter_prob > 0.0 && rng_.NextBool(cfg_.kernel_jitter_prob)) {
    // Background kernel interference (timer ticks, softirqs, kswapd):
    // occasionally a request is held up for tens of microseconds.
    core_->Consume(rng_.NextInRange(cfg_.kernel_jitter_min_cycles,
                                    cfg_.kernel_jitter_max_cycles));
  }
  if (cfg_.kernel_request_extra_cycles > 0) {
    core_->Consume(cfg_.kernel_request_extra_cycles);  // Kernel TX path.
  }
  core_->Consume(cfg_.tx_post_cycles);

  const uint32_t buffer_index = item->ctx()->id;
  Request* reqp = req;
  auto on_delivered = [cb = on_reply_, reqp] { cb(reqp); };
  while (!client_qp_->PostSend(req->reply_bytes, buffer_index, on_delivered)) {
    // Client QP saturated; retry shortly (outstanding drains by itself).
    engine_->Wait(200);
  }
  ++completed_;

  if (!cfg_.polling_delegation) {
    // Synchronous transmission: busy-wait for our send CQE, then recycle the
    // buffer ourselves. This is the HOL-blocking path Fig. 9 quantifies.
    const SimTime t0 = engine_->now();
    // [kTxWait, kDone] brackets exactly the interval accumulated into
    // req->tx_wait_ns, so the span's tx segment equals RequestSample::tx_ns.
    if (tracer_ != nullptr) {
      tracer_->Record(t0, req->id, TraceEvent::kTxWait);
    }
    const uint64_t busy0 = core_->busy_ns();
    CompletionQueue* cq = client_qp_->cq();
    bool seen = false;
    std::vector<Completion>& batch = tx_cq_batch_;
    batch.resize(cfg_.cq_poll_batch);
    while (!seen) {
      const size_t n = cq->Poll(batch.size(), batch.begin());
      if (n == 0) {
        client_cq_wait_.Wait();
        continue;
      }
      core_->Consume(cfg_.poll_cqe_cycles * n);
      for (size_t i = 0; i < n; ++i) {
        ADIOS_DCHECK(batch[i].type == WorkType::kSend);
        if (batch[i].wr_id == buffer_index) {
          seen = true;
        }
        pool_->Release(pool_->FromIndex(static_cast<uint32_t>(batch[i].wr_id)));
      }
    }
    const SimDuration waited = engine_->now() - t0;
    const uint64_t consumed = core_->busy_ns() - busy0;  // Poll cycles already counted.
    core_->AccountBusyWait(waited > consumed ? waited - consumed : 0);
    req->tx_wait_ns += waited;
    dispatcher_->Poke();  // Buffers returned; the dispatcher may proceed.
  }
  // With polling delegation, the dispatcher recycles the buffer when it
  // polls the delegated send completion.
  // The request occupies the worker until here (synchronous TX included).
  req->finish_time = engine_->now();
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), req->id, TraceEvent::kDone, index_);
  }
}

void Worker::RegisterMetrics(MetricRegistry* registry) {
  const MetricLabels labels = MetricLabels::Worker(index_);
  // Probes over counters the worker already keeps: zero hot-path cost, no
  // double bookkeeping.
  registry->RegisterProbe("worker.completed", labels,
                          [this] { return static_cast<double>(completed_); });
  registry->RegisterProbe("worker.yields", labels,
                          [this] { return static_cast<double>(yields_); });
  registry->RegisterProbe("worker.steals", labels,
                          [this] { return static_cast<double>(steals_); });
  registry->RegisterProbe("worker.preempt_fires", labels,
                          [this] { return static_cast<double>(preempt_fires_); });
  registry->RegisterProbe("worker.qp_full_stalls", labels,
                          [this] { return static_cast<double>(qp_full_stalls_); });
  registry->RegisterProbe("worker.fetch_timeouts", labels,
                          [this] { return static_cast<double>(fetch_timeouts()); });
  registry->RegisterProbe("worker.fetch_retries", labels,
                          [this] { return static_cast<double>(fetch_retries()); });
  registry->RegisterProbe("worker.failovers", labels,
                          [this] { return static_cast<double>(failovers_); });
  registry->RegisterProbe("worker.corruptions", labels,
                          [this] { return static_cast<double>(corruptions_detected_); });
  registry->RegisterProbe("worker.outstanding_faults", labels,
                          [this] { return static_cast<double>(OutstandingFaults()); });
}

void Worker::Access(RemoteAddr addr, uint64_t len, bool write) {
  ADIOS_DCHECK(running_ != nullptr);
  ADIOS_DCHECK(len > 0);
  const uint64_t first = mm_->PageOfAddr(addr);
  const uint64_t last = mm_->PageOfAddr(addr + len - 1);
  for (uint64_t p = first; p <= last; ++p) {
    if (running_->req->failed) {
      return;  // Degraded mode: a fetch was abandoned; stop touching memory.
    }
    AccessPage(p, write);
  }
}

bool Worker::PostOp(const OpTable::Op& op) {
  ADIOS_DCHECK(mm_->StateOf(op.wr_id) == PageState::kFetching);
  if (!mem_qp_->PostRead(mm_->page_bytes(), op.wr_id, op.node, op.cls)) {
    ++qp_full_stalls_;
    return false;
  }
  return true;
}

bool Worker::OnBudgetSpent(OpTable::Op& op, bool exhausted) {
  // Fail over to another in-sync replica: a suspect one is better than the
  // one that just failed; a dead one is never chosen. Once every replica had
  // its chance, give up for real.
  uint32_t best = kNoNode;
  if (placement_ != nullptr && health_ != nullptr && op.failovers < placement_->replicas()) {
    best = PickReplica(op.wr_id, op.node);
  }
  if (best == kNoNode) {
    if (exhausted) {
      // Abandon the fetch; its waiters fail their requests.
      mm_->AbortFetch(op.wr_id);
    }
    return false;
  }
  ++op.failovers;
  ++failovers_;
  op.node = best;
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), op.req_id, TraceEvent::kFailover, best);
  }
  return true;
}

uint32_t Worker::PickReplica(uint64_t vpage, uint32_t exclude) const {
  uint32_t suspect = kNoNode;
  for (uint32_t slot = 0; slot < placement_->replicas(); ++slot) {
    const uint32_t node = placement_->ReplicaNode(vpage, slot);
    if (node == exclude || !placement_->InSync(vpage, node)) {
      continue;
    }
    if (health_ == nullptr) {
      return node;
    }
    const NodeHealth h = health_->StateOf(node);
    if (h == NodeHealth::kHealthy || h == NodeHealth::kResilvering) {
      return node;
    }
    if (h == NodeHealth::kSuspect && suspect == kNoNode) {
      suspect = node;
    }
  }
  return suspect;
}

uint32_t Worker::ChooseReadNode(uint64_t vpage) const {
  if (placement_ == nullptr) {
    return 0;
  }
  // Replica-order scan: first in-sync copy on a healthy (or resilvering —
  // its in-sync pages are current) node wins, so unfailed systems always
  // read the primary. An in-sync copy on a merely-suspect node is kept as
  // fallback; with every replica dead we still aim at the primary and let
  // the retry pipeline surface the failure.
  const uint32_t node = PickReplica(vpage, kNoNode);
  return node != kNoNode ? node : placement_->Primary(vpage);
}

void Worker::AccessPage(uint64_t vpage, bool write) {
  // Every cycle charge is a suspension point during which other handlers can
  // change the page's state, so the state is re-examined after each one.
  //
  // Pinning discipline: the page is pinned only from fetch-waiter
  // registration until the post-resume re-check. A fetch waiter is made
  // ready at the very moment its page maps, so a pinned present page always
  // has a runnable pinner — which guarantees the reclaimer regains an
  // evictable page. (Pinning across the *frame* wait instead would let a
  // sleeping frame-waiter pin a page another handler fetched, wedging
  // eviction entirely under extreme pressure.)
  for (;;) {
    if (running_->req->failed) {
      return;  // A fetch this request waited on was abandoned (retry budget).
    }
    switch (mm_->StateOf(vpage)) {
      case PageState::kPresent: {
        // Synchronization-cost gate (docs/DATAPATH.md): free under kNone and
        // for lock-free lookups under kShardedCas; under kGlobalLock even a
        // hit serializes through the one lock. The charge is a suspension
        // point, so the state is revalidated before acting on it.
        const uint64_t sync_ns = mm_->SyncGateNs(/*mutating=*/false);
        if (sync_ns > 0) {
          core_->ConsumeNs(sync_ns);
          if (mm_->StateOf(vpage) != PageState::kPresent) {
            continue;  // The page moved while the lock was held/awaited.
          }
        }
        // MMU hit: free. The first touch of a prefetched page promotes it
        // out of the prefetch cache (Touch counts the hit) and extends the
        // stride detector's access trail — without this, full prefetch
        // coverage would starve the detector of its own signal.
        if (mm_->IsPrefetchedResident(vpage)) {
          prefetcher_->OnTouch(vpage);
          if (tracer_ != nullptr) {
            tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kPrefetchHit,
                            static_cast<uint32_t>(vpage));
          }
        }
        mm_->Touch(vpage, write);
        return;
      }
      case PageState::kFetching: {
        // Critical-chunk-first (docs/QOS.md): when the faulting chunk of the
        // in-flight fetch already landed, a read proceeds immediately — no
        // waiter, and never a second READ. The chunk-first model assumes the
        // landed chunk covers the touched cacheline (the fabric ships the
        // faulting chunk first). Writes always wait for the whole page so
        // they can't race the streaming tail.
        if (!write && mm_->page_table().Info(vpage).partial) {
          ++chunk_resumes_;
          return;
        }
        // Another handler's fetch is in flight; trap, then coalesce onto it
        // (unless it mapped while we were trapping).
        core_->Consume(cfg_.fault_entry_cycles);
        const uint64_t sync_ns = mm_->SyncGateNs(/*mutating=*/true);
        if (sync_ns > 0) {
          core_->ConsumeNs(sync_ns);  // Waiter registration pays the gate.
        }
        if (mm_->StateOf(vpage) == PageState::kFetching) {
          if (mm_->IsPrefetchedInFlight(vpage)) {
            // Demand beat the prefetched READ home: attach a waiter to the
            // in-flight fetch (never a duplicate post) and count it late —
            // right stride, window too shallow.
            prefetcher_->OnTouch(vpage);
            mm_->MarkPrefetchLate(vpage);
          }
          ++mm_->stats().shared_faults;
          ++running_->req->faults;
          mm_->Pin(vpage);
          BlockOnFetch(vpage, write);
          mm_->Unpin(vpage);
        }
        continue;
      }
      case PageState::kRemote: {
        core_->Consume(cfg_.fault_entry_cycles + cfg_.kernel_fault_extra_cycles);
        if (mm_->StateOf(vpage) != PageState::kRemote) {
          continue;  // Raced with another fault during the trap.
        }
        const uint64_t sync_ns = mm_->SyncGateNs(/*mutating=*/true);
        if (sync_ns > 0) {
          core_->ConsumeNs(sync_ns);  // The page-table transition pays the gate.
          if (mm_->StateOf(vpage) != PageState::kRemote) {
            continue;
          }
        }
        // A woken frame waiter whose page another handler fetched meanwhile
        // leaves without the frame it was woken for: it passes the wake on.
        const bool woken = WaitForFreeFrame(vpage);
        if (mm_->StateOf(vpage) != PageState::kRemote) {
          if (woken) {
            mm_->PassFrameWake();
          }
          continue;
        }
        core_->Consume(cfg_.frame_alloc_cycles);
        if (mm_->StateOf(vpage) != PageState::kRemote) {
          if (woken) {
            mm_->PassFrameWake();
          }
          continue;
        }
        if (!mm_->HasFreeFrame()) {
          continue;  // Another handler took the last frame during the charge.
        }
        // No suspension between the checks and here. The worker index tags
        // the fetch as the owner key for the free-frame credit cache.
        mm_->BeginFetch(vpage, /*prefetch=*/false, static_cast<uint16_t>(index_));
        ++running_->req->faults;
        if (tracer_ != nullptr) {
          tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kFault,
                          static_cast<uint32_t>(vpage));
        }
        mm_->Pin(vpage);
        PostFaultReads(vpage);
        BlockOnFetch(vpage, write);
        mm_->Unpin(vpage);
        continue;  // Re-check: maps on completion, so this hits kPresent
                   // (or, after an early chunk resume, the partial branch).
      }
    }
  }
}

bool Worker::WaitForFreeFrame(uint64_t vpage) {
  if (mm_->HasFreeFrame()) {
    return false;
  }
  ++mm_->stats().frame_stalls;
  // The frame wait is its own span segment: it is memory pressure, not fetch
  // latency, so it must not blend into the exec or fetch-stall time.
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kFrameStall,
                    static_cast<uint32_t>(vpage));
  }
  const bool busy_policy = cfg_.fault_policy == FaultPolicy::kBusyWait ||
                           cfg_.fault_policy == FaultPolicy::kKernelBusyWait;
  if (!busy_policy) {
    // Yield policies: pause this unithread and return to the worker loop.
    // Holding the worker here would deadlock under extreme pressure: the
    // frames may all be pinned by *ready* unithreads that only this worker
    // can resume (and whose touches make their pages evictable again).
    RunItem* item = running_;
    bool woken = false;
    while (!mm_->HasFreeFrame()) {
      DrainMemCq();
      if (mm_->HasFreeFrame()) {
        break;
      }
      mm_->AddFrameWaiter([item] { item->home->EnqueueReady(item); });
      core_->Consume(cfg_.ctx_switch_cycles);
      UnithreadContext* ctx = item->ctx();
      ctx->state = ContextState::kBlocked;
      engine_->RawSwitch(ctx, item->home->fiber_ctx_);
      woken = true;
      // Resumed on a frame release; re-check (it may be gone again).
    }
    if (tracer_ != nullptr) {
      tracer_->Record(engine_->now(), item->req->id, TraceEvent::kFrameStallDone);
    }
    return woken;
  }
  // Busy-waiting policies run one request per worker to completion, so the
  // handler legitimately spins; draining the CQ keeps fetched pages mapping
  // (and thus evictable) meanwhile.
  const SimTime t0 = engine_->now();
  const uint64_t busy0 = core_->busy_ns();
  while (!mm_->HasFreeFrame()) {
    DrainMemCq();
    if (mm_->HasFreeFrame()) {
      break;
    }
    engine_->Wait(500);
  }
  const SimDuration waited = engine_->now() - t0;
  const uint64_t consumed = core_->busy_ns() - busy0;
  core_->AccountBusyWait(waited > consumed ? waited - consumed : 0);
  running_->req->busy_wait_ns += waited;
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kFrameStallDone);
  }
  return false;
}

void Worker::PostReadWithBackpressure(uint64_t vpage, TrafficClass cls) {
  core_->Consume(cfg_.post_read_cycles);
  const uint32_t node = ChooseReadNode(vpage);
  while (!mem_qp_->PostRead(mm_->page_bytes(), vpage, node, cls)) {
    // QP send queue is full (§5.2: "page fault handlers must pause, waiting
    // for available slots in the QPs").
    ++qp_full_stalls_;
    if (DrainMemCq() == 0) {
      mem_cq_wait_.Wait();
    }
  }
  if (cfg_.retry.enabled) {
    ops_.Track(vpage, node, cls, running_->req->id);
  }
}

void Worker::PostFaultReads(uint64_t vpage) {
  // Candidates are gathered (and transitioned to kFetching) before any cycle
  // charge below: once marked, no concurrent handler can double-fetch them,
  // and demand faults landing on them coalesce.
  prefetch_scratch_.clear();
  if (cfg_.prefetch_window > 0) {
    prefetcher_->OnFault(vpage, mm_, &prefetch_scratch_);
    if (tracer_ != nullptr) {
      for (const uint64_t q : prefetch_scratch_) {
        tracer_->Record(engine_->now(), running_->req->id, TraceEvent::kPrefetch,
                        static_cast<uint32_t>(q));
      }
    }
  }
  if (prefetch_scratch_.empty() || cfg_.post_read_batch <= 1) {
    // Legacy path: one doorbell per READ. With prefetching off this is
    // bit-identical to the pre-batching worker.
    PostReadWithBackpressure(vpage);
    for (const uint64_t q : prefetch_scratch_) {
      PostReadWithBackpressure(q, TrafficClass::kPrefetch);
    }
    return;
  }
  // Doorbell-batched post: the demand READ plus up to post_read_batch - 1
  // prefetch candidates ring one doorbell. Each page still picks its own
  // replica (placement / node health from the failover layer).
  const size_t cap = cfg_.post_read_batch - 1 < prefetch_scratch_.size()
                         ? cfg_.post_read_batch - 1
                         : prefetch_scratch_.size();
  batch_ops_.clear();
  batch_ops_.push_back(ReadOp{vpage, ChooseReadNode(vpage), TrafficClass::kDemand});
  for (size_t i = 0; i < cap; ++i) {
    // A mixed-class batch: the doorbell is shared, but each prefetch op
    // serves the prefetch class on every wire stage (docs/QOS.md).
    batch_ops_.push_back(ReadOp{prefetch_scratch_[i], ChooseReadNode(prefetch_scratch_[i]),
                                TrafficClass::kPrefetch});
  }
  core_->Consume(cfg_.post_read_cycles +
                 cfg_.post_read_wqe_cycles * static_cast<uint32_t>(batch_ops_.size() - 1));
  const size_t accepted =
      mem_qp_->PostReadBatch(mm_->page_bytes(), batch_ops_.data(), batch_ops_.size());
  if (cfg_.retry.enabled) {
    for (size_t i = 0; i < accepted; ++i) {
      ops_.Track(batch_ops_[i].wr_id, batch_ops_[i].node, batch_ops_[i].cls,
                 running_->req->id);
    }
  }
  // Everything the send queue rejected — and candidates beyond the batch
  // cap — is already kFetching (possibly with coalesced waiters), so it must
  // still be posted: one doorbell each, waiting out backpressure. Note the
  // batch accepts a prefix, so a rejected demand READ (accepted == 0) is
  // reposted first here.
  for (size_t i = accepted; i < batch_ops_.size(); ++i) {
    PostReadWithBackpressure(batch_ops_[i].wr_id, batch_ops_[i].cls);
  }
  for (size_t i = cap; i < prefetch_scratch_.size(); ++i) {
    PostReadWithBackpressure(prefetch_scratch_[i], TrafficClass::kPrefetch);
  }
}

size_t Worker::DrainMemCq() {
  CompletionQueue* cq = mem_qp_->cq();
  size_t total = 0;
  std::vector<Completion>& batch = mem_cq_batch_;
  batch.resize(cfg_.cq_poll_batch);
  for (;;) {
    const size_t n = cq->Poll(batch.size(), batch.begin());
    if (n == 0) {
      break;
    }
    core_->Consume((cfg_.poll_cqe_cycles + cfg_.map_page_cycles) * n);
    for (size_t i = 0; i < n; ++i) {
      ADIOS_DCHECK(batch[i].type == WorkType::kRead);
      if (batch[i].partial) {
        // Critical chunk landed (docs/QOS.md); the WQE is still outstanding
        // — the tail's final completion settles it. Early-resume readers now.
        // Handled before the retry dedupe: the op must stay tracked.
        if (tracer_ != nullptr && cfg_.retry.enabled) {
          if (const OpTable::Op* op = ops_.Find(batch[i].wr_id)) {
            tracer_->Record(engine_->now(), op->req_id, TraceEvent::kChunkReady,
                            static_cast<uint32_t>(batch[i].wr_id));
          }
        }
        mm_->ChunkReady(batch[i].wr_id);
        continue;
      }
      if (cfg_.retry.enabled) {
        const OpTable::Op* op = ops_.OnCompletion(batch[i]);
        if (op == nullptr) {
          continue;  // Late or duplicate (dropped), or an error the table took.
        }
        if (integrity_ != nullptr) {
          // Verify before mapping: recompute the page checksum against the
          // slot's recorded digest (docs/INTEGRITY.md). The hash cost is
          // charged to this core whether the page is clean or not.
          core_->Consume(integrity_->VerifyCost());
          // The verify suspended this context: a fetch deadline that fired
          // meanwhile may have failed the fetch and dropped its op, so the
          // op is re-found. A fetch settled that way drops this completion
          // as late.
          op = ops_.Find(batch[i].wr_id);
          if (op == nullptr) {
            continue;
          }
          if (!integrity_->VerifyFetch(batch[i].wr_id, batch[i].wr_id, batch[i].node)) {
            // Silent corruption — the completion said success, the payload
            // lies. Treat it exactly like a dead READ: divergence + health
            // evidence + failover to another in-sync replica, or abandon the
            // fetch when no copy remains (R1).
            ++corruptions_detected_;
            if (tracer_ != nullptr) {
              tracer_->Record(engine_->now(), op->req_id, TraceEvent::kCorrupt,
                              batch[i].node);
            }
            if (placement_ != nullptr) {
              placement_->MarkOutOfSync(batch[i].wr_id, batch[i].node);
            }
            if (health_ != nullptr) {
              health_->ReportCorruption(batch[i].node);
            }
            integrity_->OnCorruptionDetected(batch[i].wr_id, batch[i].node,
                                             /*from_scrub=*/false);
            ops_.Fail(batch[i].wr_id);
            continue;  // Never mapped, never reported healthy.
          }
        }
        ops_.Settle(batch[i].wr_id);
      } else if (integrity_ != nullptr && batch[i].ok()) {
        // Retry pipeline off (oracle-only runs): nothing to fail over to,
        // but the ledger still records silently-served corruption.
        integrity_->VerifyFetch(batch[i].wr_id, batch[i].wr_id, batch[i].node);
      }
      if (health_ != nullptr) {
        health_->ReportSuccess(batch[i].node);
      }
      if (decompress_ns_ > 0) {
        // Link compression (docs/QOS.md): the page arrives compressed; this
        // core decompresses it before mapping.
        core_->ConsumeNs(decompress_ns_);
      }
      mm_->CompleteFetch(batch[i].wr_id);
    }
    total += n;
  }
  return total;
}

void Worker::BlockOnFetch(uint64_t vpage, bool write) {
  RunItem* item = running_;
  Request* req = item->req;
  // Reads qualify for critical-chunk-first early resume: ChunkReady runs
  // early-flagged waiters as soon as the faulting chunk lands. The flag is
  // inert unless the fabric actually chunks (chunk_bytes > 0), so waiter
  // ordering is bit-identical to the seed with QoS off.
  const bool early = !write;
  const SimTime t0 = engine_->now();
  // kStall/kStallDone bracket exactly the interval accumulated into
  // req->rdma_wait_ns below, so the span builder's fetch-stall segment
  // reconciles with RequestSample::rdma_ns to the nanosecond.
  if (tracer_ != nullptr) {
    tracer_->Record(t0, req->id, TraceEvent::kStall, static_cast<uint32_t>(vpage));
  }

  if (cfg_.fault_policy == FaultPolicy::kYield ||
      cfg_.fault_policy == FaultPolicy::kKernelYield) {
    // Adios (Fig. 5 steps 4-5, 8-10): register the continuation and switch
    // back to the worker loop; the fetch completes in the background. The
    // waiter is registered *before* the switch-cost charge: if the page maps
    // during the charge, EnqueueReady simply queues us ahead of the switch,
    // and the worker resumes us right after we yield.
    //
    // Kernel-yield (Infiniswap-class): the same flow, but the switch is a
    // kernel-thread switch and the wake-up goes through the kernel
    // scheduler, adding kernel_sched_delay before the resume.
    if (cfg_.fault_policy == FaultPolicy::kKernelYield) {
      Engine* engine = engine_;
      const SimDuration delay = cfg_.kernel_sched_delay_ns;
      mm_->AddFetchWaiter(vpage, [engine, delay, item](bool ok) {
        if (!ok) {
          item->req->failed = true;
        }
        engine->Schedule(delay, [item] { item->home->EnqueueReady(item); });
      }, early);
      core_->Consume(cfg_.kernel_ctx_switch_cycles);
    } else {
      mm_->AddFetchWaiter(vpage, [this, item](bool ok) {
        if (!ok) {
          item->req->failed = true;
        } else if (tracer_ != nullptr) {
          tracer_->Record(engine_->now(), item->req->id, TraceEvent::kFetchDone);
        }
        item->home->EnqueueReady(item);
      }, early);
      core_->Consume(cfg_.ctx_switch_cycles + cfg_.yield_bookkeeping_cycles);
    }
    UnithreadContext* ctx = item->ctx();
    ctx->state = ContextState::kBlocked;
    engine_->RawSwitch(ctx, item->home->fiber_ctx_);
    // Resumed by RunItemNow once the page was mapped.
  } else {
    // DiLOS/Hermit: spin on the CQ until this fetch maps. The waiter flag
    // also covers the cross-worker case (our page fetched by another QP).
    const uint64_t busy0 = core_->busy_ns();
    bool done = false;
    mm_->AddFetchWaiter(vpage, [this, &done, req](bool ok) {
      if (!ok) {
        req->failed = true;
      }
      done = true;
      mem_cq_wait_.NotifyAll();
    }, early);
    while (!done) {
      DrainMemCq();
      if (!done) {
        mem_cq_wait_.Wait();
      }
    }
    const SimDuration waited = engine_->now() - t0;
    const uint64_t consumed = core_->busy_ns() - busy0;  // Poll/map cycles counted already.
    core_->AccountBusyWait(waited > consumed ? waited - consumed : 0);
    req->busy_wait_ns += waited;
  }
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), req->id, TraceEvent::kStallDone);
  }
  req->rdma_wait_ns += engine_->now() - t0;
}

void Worker::MaybePreempt() {
  if (!cfg_.preemption || running_ == nullptr) {
    return;
  }
  core_->Consume(cfg_.preempt_check_cycles);
  RunItem* item = running_;
  if (engine_->now() - item->quantum_start < cfg_.preempt_interval_ns) {
    return;
  }
  // Quantum expired: requeue at the *lowest* priority on this worker (fresh
  // requests run first, approximating processor sharing) and return to the
  // worker loop. The unithread stays on its home worker: its handler holds a
  // reference to this worker's API, and its faults post on this worker's QP.
  ++item->req->preemptions;
  ++preempt_fires_;
  if (tracer_ != nullptr) {
    tracer_->Record(engine_->now(), item->req->id, TraceEvent::kPreempt, index_);
  }
  core_->Consume(cfg_.preempt_switch_cycles);
  UnithreadContext* ctx = item->ctx();
  ctx->state = ContextState::kRunnable;
  preempted_.push_back(item);
  engine_->RawSwitch(ctx, fiber_ctx_);
  // Resumed when the worker loop reaches the preempted queue again.
}

}  // namespace adios
