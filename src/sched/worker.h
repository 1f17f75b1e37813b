// Worker: runs request-handling unithreads on one simulated core and owns
// the per-core fault-handling flow (paper §3.3, Fig. 5).
//
// The worker is the paper's per-core event loop: it polls its memory-node CQ
// once per iteration, resumes unithreads whose page fetches completed, and
// otherwise starts the unithread for the next dispatched request. The fault
// policies differ in BlockOnFetch():
//
//   kYield (Adios): register a waiter, context-switch back to the worker
//     loop; the worker keeps executing other unithreads, and resumes this one
//     when it polls the fetch completion.
//   kBusyWait (DiLOS): spin on the CQ until this fetch completes; the core
//     is busy (and the worker blocked) the whole time.
//   kKernelBusyWait (Hermit): kBusyWait plus kernel trap/return costs and
//     kernel network-stack costs per request.

#ifndef ADIOS_SRC_SCHED_WORKER_H_
#define ADIOS_SRC_SCHED_WORKER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/integrity/integrity.h"
#include "src/mem/memory_manager.h"
#include "src/mem/prefetcher.h"
#include "src/mem/remote_heap.h"
#include "src/obs/metric_registry.h"
#include "src/rdma/fabric.h"
#include "src/rdma/node_health.h"
#include "src/rdma/op_table.h"
#include "src/sched/config.h"
#include "src/sched/request.h"
#include "src/sched/worker_api.h"
#include "src/sim/cpu_core.h"
#include "src/sim/trace.h"
#include "src/sim/wait_queue.h"
#include "src/unithread/universal_stack.h"

namespace adios {

class Dispatcher;
class Worker;

// One admitted request bound to a unithread buffer. Lives in the buffer's
// payload area (the paper stores the packet and context in the same buffer).
struct RunItem {
  Request* req = nullptr;
  UnithreadBuffer buffer;
  Worker* home = nullptr;      // Worker currently responsible for the unithread.
  SimTime quantum_start = 0;   // For cooperative preemption.
  bool started = false;

  UnithreadContext* ctx() { return buffer.context(); }
};

class Worker final : public WorkerApi, private OpTable::Issuer {
 public:
  using ReplyFn = std::function<void(Request*)>;
  using HandlerFn = std::function<void(Request*, WorkerApi&)>;

  Worker(uint32_t index, Engine* engine, CpuCore* core, MemoryManager* mm, UnithreadPool* pool,
         QueuePair* mem_qp, QueuePair* client_qp, const SchedConfig& config, HandlerFn handler,
         ReplyFn on_reply);

  void set_dispatcher(Dispatcher* d) { dispatcher_ = d; }

  // Spawns the worker fiber.
  void Start();

  uint32_t index() const { return index_; }
  CpuCore* core() { return core_; }
  QueuePair* mem_qp() { return mem_qp_; }
  QueuePair* client_qp() { return client_qp_; }

  // --- Dispatcher-facing ---

  // Centralized policies: a worker accepts one pending request at a time
  // (mailbox of one). Work stealing: a bounded per-worker queue.
  bool CanAccept() const {
    if (cfg_.dispatch_policy == DispatchPolicy::kWorkStealing) {
      return assigned_q_.size() < cfg_.steal_queue_cap;
    }
    return assigned_q_.empty();
  }
  // The PF-aware congestion signal: in-flight page fetches on this QP.
  uint32_t OutstandingFaults() const { return mem_qp_->outstanding(); }
  void Assign(RunItem* item);
  // Peer workers, for work stealing.
  void set_peers(std::vector<Worker*> peers) { peers_ = std::move(peers); }
  void Wake() { events_.NotifyAll(); }

  // Makes a fault-yielded unithread runnable again (may be called by another
  // worker that polled the completion of a shared fetch).
  void EnqueueReady(RunItem* item);

  // --- Stats ---
  uint64_t completed() const { return completed_; }
  uint64_t yields() const { return yields_; }
  uint64_t qp_full_stalls() const { return qp_full_stalls_; }
  uint64_t preempt_fires() const { return preempt_fires_; }
  uint64_t steals() const { return steals_; }
  uint64_t fetch_timeouts() const { return ops_.timeouts(); }
  uint64_t fetch_retries() const { return ops_.retries(); }
  uint64_t failovers() const { return failovers_; }
  // Reads that proceeded off a partially-landed page (docs/QOS.md).
  uint64_t chunk_resumes() const { return chunk_resumes_; }

  // --- WorkerApi (called by application handlers on unithreads) ---
  void Access(RemoteAddr addr, uint64_t len, bool write) override;
  void Compute(uint64_t cycles) override { core_->Consume(cycles); }
  void MaybePreempt() override;
  RemoteRegion* region() override { return region_; }
  Request* request() override { return running_ != nullptr ? running_->req : nullptr; }
  Rng& rng() override { return rng_; }

  void set_region(RemoteRegion* region) { region_ = region; }
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    ops_.set_tracer(tracer);
  }
  // Publishes the worker's counters as probes labeled {worker=index}.
  void RegisterMetrics(MetricRegistry* registry);
  // Replication wiring (both null on a single-node system: the fetch path
  // then always targets node 0 and never consults health state).
  void set_placement(PlacementMap* placement) { placement_ = placement; }
  void set_node_health(NodeHealthMonitor* health) {
    health_ = health;
    ops_.set_node_health(health);
  }
  // Verify-on-fetch (docs/INTEGRITY.md): consulted once per successful READ
  // completion in DrainMemCq. Null = no integrity layer (the default), zero
  // cost on the fetch path.
  void set_integrity(IntegrityLayer* integrity) { integrity_ = integrity; }
  // Link-compression cost model (docs/QOS.md): nanoseconds this core spends
  // decompressing each fetched page, charged per final READ completion in
  // DrainMemCq. 0 (the default) charges nothing.
  void set_decompress_ns(uint64_t ns) { decompress_ns_ = ns; }

  // Unithread entry point (contexts are prepared by the dispatcher).
  static void UnithreadMain(void* arg);

 private:
  void Loop();
  void RunItemNow(RunItem* item);
  void FinishRequest(RunItem* item);
  ADIOS_MAY_SUSPEND void AccessPage(uint64_t vpage, bool write);
  // `write` decides early-resume eligibility: a read may resume off the
  // critical chunk (docs/QOS.md); a write must wait for the whole page.
  ADIOS_MAY_SUSPEND void BlockOnFetch(uint64_t vpage, bool write);
  // Returns true when the handler parked as a frame waiter and was woken.
  ADIOS_MAY_SUSPEND bool WaitForFreeFrame(uint64_t vpage);
  void PostReadWithBackpressure(uint64_t vpage,
                                TrafficClass cls = TrafficClass::kDemand);
  // Posts the demand READ for `vpage` plus the prefetcher's candidates —
  // doorbell-batched when enabled, one doorbell each otherwise (the
  // bit-identical legacy path when prefetching or batching is off).
  void PostFaultReads(uint64_t vpage);
  // Polls the memory CQ, maps fetched pages, runs waiters. Returns #polled.
  size_t DrainMemCq();

  // --- OpTable::Issuer hooks for the fetch deadline/retry pipeline (active
  // only when cfg_.retry.enabled; docs/FAULT_MODEL.md §4). Fetch ops are
  // keyed by vpage, the wr_id each READ carries. ---

  // Reposts the READ; false (counted as a QP-full stall) when the QP is full.
  bool PostOp(const OpTable::Op& op) override;
  // Points the fetch at another in-sync replica (the table then reposts at
  // once with a fresh budget), or aborts it once `exhausted`. No failover
  // without replication, or once the per-fetch failover cap is spent.
  bool OnBudgetSpent(OpTable::Op& op, bool exhausted) override;

  static constexpr uint32_t kNoNode = ~0u;
  // First in-sync replica of `vpage` other than `exclude` on a healthy or
  // resilvering node, else the first on a suspect node; kNoNode when none.
  // Requires a placement map.
  uint32_t PickReplica(uint64_t vpage, uint32_t exclude) const;
  // Best in-sync replica to fetch `vpage` from (node 0 without placement).
  uint32_t ChooseReadNode(uint64_t vpage) const;

  uint32_t index_;
  Engine* engine_;
  CpuCore* core_;
  MemoryManager* mm_;
  UnithreadPool* pool_;
  QueuePair* mem_qp_;
  QueuePair* client_qp_;
  SchedConfig cfg_;
  HandlerFn handler_;
  ReplyFn on_reply_;
  Dispatcher* dispatcher_ = nullptr;
  RemoteRegion* region_ = nullptr;
  Tracer* tracer_ = nullptr;
  PlacementMap* placement_ = nullptr;
  NodeHealthMonitor* health_ = nullptr;
  IntegrityLayer* integrity_ = nullptr;

  // Pops a not-yet-started request from the busiest peer's queue (work
  // stealing); nullptr when no peer has queued work.
  RunItem* TrySteal();

  UnithreadContext* fiber_ctx_ = nullptr;
  RunItem* running_ = nullptr;
  std::deque<RunItem*> assigned_q_;  // Dispatcher mailbox (1 deep unless stealing).
  std::deque<RunItem*> ready_;      // Fault-resumed unithreads (highest priority).
  std::deque<RunItem*> preempted_;  // Quantum-expired unithreads.
  bool prefer_preempted_ = false;   // Alternation flag: fresh vs preempted.
  std::vector<Worker*> peers_;
  WaitQueue events_;        // Worker-loop sleep: assigns, ready items, CQ pushes.
  WaitQueue mem_cq_wait_;   // Busy-wait handlers sleeping on CQ activity.
  WaitQueue client_cq_wait_;
  std::unique_ptr<Prefetcher> prefetcher_;
  std::vector<uint64_t> prefetch_scratch_;
  std::vector<ReadOp> batch_ops_;  // Scratch for doorbell-batched posts.
  // Poll scratch for DrainMemCq and the synchronous-TX wait. Neither
  // function re-enters itself: only one context per worker runs at a time.
  std::vector<Completion> mem_cq_batch_;
  std::vector<Completion> tx_cq_batch_;
  Rng rng_;

  OpTable ops_;  // In-flight fetches (retry on only).

  uint64_t completed_ = 0;
  uint64_t yields_ = 0;
  uint64_t qp_full_stalls_ = 0;
  uint64_t preempt_fires_ = 0;
  uint64_t steals_ = 0;
  uint64_t failovers_ = 0;
  uint64_t corruptions_detected_ = 0;
  uint64_t decompress_ns_ = 0;  // Per-page decompression charge (0 = off).
  uint64_t chunk_resumes_ = 0;  // Reads satisfied by a partial page.
};

}  // namespace adios

#endif  // ADIOS_SRC_SCHED_WORKER_H_
