// Page reclaimer (paper §3.3, "Reclaimer").
//
// Adios pins a dedicated reclaimer thread that *proactively* evicts pages
// when free frames fall below a watermark, so fault handlers (almost) never
// stall on allocation. The conventional alternative — a reclaimer that is
// woken up on memory pressure and pays a scheduling delay — is also
// implemented (`proactive = false`, `wakeup_delay_ns > 0`) for the
// reclaimer ablation benchmark.
//
// Dirty pages are written back to the memory node with one-sided WRITEs on
// the reclaimer's own QP; their frames are released only when the WRITE
// completes, so write-back pressure is visible as allocation pressure. On a
// replicated fabric the write-back fans out to every live replica (the frame
// is held until the *last* replica settles), and the reclaimer additionally
// owns the background re-silver pass: when a dead node recovers, it walks
// the placement map's out-of-sync list and re-replicates those pages —
// paced to a bandwidth cap and deferred under frame pressure, so it never
// starves demand fetches.

#ifndef ADIOS_SRC_MEM_RECLAIMER_H_
#define ADIOS_SRC_MEM_RECLAIMER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/integrity/integrity.h"
#include "src/mem/memory_manager.h"
#include "src/mem/remote_heap.h"
#include "src/rdma/fabric.h"
#include "src/rdma/node_health.h"
#include "src/rdma/op_table.h"
#include "src/rdma/params.h"
#include "src/sim/cpu_core.h"
#include "src/sim/trace.h"
#include "src/sim/wait_queue.h"

namespace adios {

class Reclaimer final : private OpTable::Issuer {
 public:
  struct Options {
    bool proactive = true;          // Pinned thread, immediate response.
    SimDuration wakeup_delay_ns = 0;  // Scheduling delay for wake-up-based mode.
    uint32_t evict_cycles = 250;    // CPU cost per evicted page.
    uint32_t scan_fail_retry_ns = 2000;  // Backoff when nothing is evictable.
    // Write-back deadline/retry pipeline; enabled by MdSystem alongside the
    // fault injector (docs/FAULT_MODEL.md).
    RetryPolicy retry;
    // Re-silver pacing (docs/FAILOVER.md): one page copy per
    // SerializationNs(page, resilver_bw_gbps), ×4 while below the low
    // watermark; up to resilver_max_attempts posts per page before the
    // replica is left divergent for the next pass.
    double resilver_bw_gbps = 10.0;
    uint32_t resilver_max_attempts = 3;
    // Background scrubber (docs/INTEGRITY.md): paced bounce-frame reads of
    // cold remote pages, verified against the checksum map; same pressure
    // rules as re-silvering (×4 deferral below the low watermark). Enabled
    // by MdSystem from IntegrityConfig; needs set_integrity + StartScrub.
    bool scrub_enabled = false;
    double scrub_bw_gbps = 1.0;
    uint32_t scrub_batch_pages = 32;
    SimDuration scrub_pass_gap_ns = 1'000'000;
  };

  Reclaimer(Engine* engine, CpuCore* core, MemoryManager* mm, QueuePair* qp, Options options);

  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

  // Spawns the reclaimer fiber and installs the memory manager's kick hook.
  void Start();

  // Replication wiring (both null on a single-node system; the write-back
  // path then targets node 0 only and BeginResilver must not be called).
  void set_placement(PlacementMap* placement) { placement_ = placement; }
  void set_node_health(NodeHealthMonitor* health) {
    health_ = health;
    ops_.set_node_health(health);
  }
  // Integrity wiring (docs/INTEGRITY.md): write-back completions refresh the
  // checksum map, re-silver source reads are verified, and the scrubber
  // checks every page it touches. Null = no integrity bookkeeping.
  void set_integrity(IntegrityLayer* integrity) { integrity_ = integrity; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Kicks the re-silver pass for a node that just left kDead: collects its
  // out-of-sync pages and re-replicates them at the paced rate, then calls
  // NodeHealthMonitor::NotifyResilverDone. Requires a placement map.
  void BeginResilver(uint32_t node);

  // Queues a repair copy for one divergent replica slot (verify-on-fetch or
  // scrub detection): the same paced re-silver machinery that heals a
  // recovered node re-replicates this one page. No-op without a placement
  // map (R1 has no copy to repair from).
  void RequestRepair(uint64_t vpage, uint32_t node);

  // Starts the background scrub loop, running until the simulated horizon
  // `until` (mirrors the controller's Start(warmup + measure): a perpetual
  // tick would keep the engine from draining). Requires set_integrity.
  void StartScrub(SimTime until);

  uint64_t pages_reclaimed() const { return pages_reclaimed_; }
  uint64_t writebacks_inflight() const { return writebacks_inflight_; }
  uint64_t writeback_timeouts() const { return ops_.timeouts(); }
  uint64_t writeback_retries() const { return ops_.retries(); }
  uint64_t writeback_aborts() const { return writeback_aborts_; }
  uint64_t pages_resilvered() const { return pages_resilvered_; }
  uint64_t resilver_failures() const { return resilver_failures_; }
  // Bounce frames currently reserved for in-flight re-silver copies; the
  // frame-ownership auditor adds this term to its conservation equation.
  uint64_t resilver_frames_held() const { return resilver_frames_; }
  // Bounce frames currently reserved for in-flight scrub reads (also a
  // frame-conservation term).
  uint64_t scrub_frames_held() const { return scrub_frames_; }
  // Pages with a write-back fan-out in flight; each holds exactly one frame,
  // so this must equal writebacks_inflight() (audited).
  uint64_t writeback_pages_tracked() const { return wb_pages_.size(); }
  // True while `vpage` has a write-back fan-out in flight. The checksum-map
  // auditor skips such pages: their recorded digests lag the region until the
  // WRITEs land, by design.
  bool WritebackInFlight(uint64_t vpage) const { return wb_pages_.count(vpage) != 0; }

 private:
  ADIOS_MAY_SUSPEND void Loop();
  void DrainWriteCompletions();

  // --- Write-back fan-out ---
  //
  // One dirty eviction posts a WRITE per live replica; wr_ids encode
  // (vpage, node) so per-WQE retry state stays independent while the page's
  // frame is released only when the last replica settles. Node 0's wr_id is
  // the bare vpage, so a single-node fabric is bit-identical to the
  // pre-replication pipeline.
  static constexpr uint64_t kWbNodeShift = 48;
  static constexpr uint64_t kWbPageMask = (1ull << kWbNodeShift) - 1;
  static constexpr uint64_t kResilverFlag = 1ull << 63;
  static constexpr uint64_t kScrubFlag = 1ull << 62;
  static uint64_t WbId(uint64_t vpage, uint32_t node) {
    return vpage | (static_cast<uint64_t>(node) << kWbNodeShift);
  }
  static uint64_t WbPageOf(uint64_t wr_id) { return wr_id & kWbPageMask; }
  static uint32_t WbNodeOf(uint64_t wr_id) {
    return static_cast<uint32_t>((wr_id & ~(kResilverFlag | kScrubFlag)) >> kWbNodeShift);
  }
  static bool IsResilverId(uint64_t wr_id) { return (wr_id & kResilverFlag) != 0; }
  static uint64_t ResilverId(uint64_t vpage, uint32_t node) {
    return kResilverFlag | WbId(vpage, node);
  }
  static bool IsScrubId(uint64_t wr_id) { return (wr_id & kScrubFlag) != 0; }
  static uint64_t ScrubId(uint64_t vpage, uint32_t node) {
    return kScrubFlag | WbId(vpage, node);
  }

  // Live replica targets for a dirty write-back of `vpage` (just {0} without
  // a placement map). Dead nodes are skipped and their replicas marked
  // out of sync — the missed update is what re-silvering repairs.
  void WritebackTargets(uint64_t vpage, std::vector<uint32_t>* out);
  // One replica WQE settled (success or final drop); at zero remaining the
  // page's frame is released.
  void FinishWbReplica(uint64_t vpage, bool success);

  // Posts one background WRITE of `vpage` (QP-full: false) and records the
  // digest it carries. Every write-back and re-silver WRITE goes through it.
  bool PostPageWrite(uint64_t wr_id, uint64_t vpage, uint32_t node);

  // --- OpTable::Issuer hooks (docs/FAULT_MODEL.md §4). Write-backs track
  // under the RetryPolicy when it is enabled, keyed by their (vpage, node)
  // wr_id; re-silver copies always track, single-shot, under their
  // ResilverId. ---

  // Reposts a write-back WRITE; false when the QP is full.
  bool PostOp(const OpTable::Op& op) override;
  // Budget spent: drops a write-back's replica (it diverges; the frame is
  // released once the other replicas settle), or requeues/abandons a
  // re-silver copy.
  bool OnBudgetSpent(OpTable::Op& op, bool exhausted) override;

  // --- Re-silver pass ---
  struct ResilverWork {
    uint64_t vpage = 0;
    uint32_t target = 0;   // Node whose replica is being restored.
    uint32_t attempts = 0; // Error/timeout requeues so far.
  };
  // The resources of one in-flight re-silver WQE (READ from a source replica
  // into a bounce frame, or WRITE toward target from the bounce frame / a
  // resident page). The op's node and deadline live in the OpTable.
  struct ResilverOp {
    uint64_t vpage = 0;
    uint32_t target = 0;
    uint32_t attempts = 0;
    bool pinned = false;       // Resident page pinned for the WRITE.
    bool has_frame = false;    // Bounce frame reserved.
  };

  SimDuration ResilverIntervalNs() const {
    return FabricParams::SerializationNs(mm_->page_bytes(), options_.resilver_bw_gbps);
  }
  SimDuration ResilverTimeoutNs() const {
    return options_.retry.enabled ? options_.retry.timeout_ns : 50'000;
  }
  void ArmResilverTick(SimDuration delay);
  void ResilverTick();
  void StartResilverWork(const ResilverWork& work);
  void PostResilverWrite(ResilverOp op);
  void OnResilverCompletion(const Completion& c);
  void AbandonOrRequeueResilver(ResilverOp op);
  void ReleaseResilverResources(ResilverOp& op);
  // Decrements `target`'s pending count; at zero notifies the monitor.
  void FinishResilverPage(uint32_t target);

  // --- Background scrubber (docs/INTEGRITY.md) ---
  //
  // A cursor over (vpage, replica-slot) issues one paced bounce-frame READ
  // per tick for cold remote in-sync pages; the completion verifies the
  // stored copy against the checksum map. Passes of scrub_batch_pages are
  // bracketed by kScrubStart/kScrubDone trace events with scrub_pass_gap_ns
  // between them. Scrub READs carry no deadline: the fabric delivers exactly
  // one completion per post (error completions included), so nothing leaks.
  struct ScrubOp {
    uint64_t vpage = 0;
    uint32_t node = 0;
  };
  SimDuration ScrubIntervalNs() const {
    return FabricParams::SerializationNs(mm_->page_bytes(), options_.scrub_bw_gbps);
  }
  void ArmScrubTick(SimDuration delay);
  void ScrubTick();
  void OnScrubCompletion(const Completion& c);
  void OpenScrubPass();
  void CloseScrubPass();

  Engine* engine_;
  CpuCore* core_;
  MemoryManager* mm_;
  QueuePair* qp_;
  Options options_;
  PlacementMap* placement_ = nullptr;
  NodeHealthMonitor* health_ = nullptr;
  IntegrityLayer* integrity_ = nullptr;
  Tracer* tracer_ = nullptr;
  WaitQueue sleep_queue_;
  WaitQueue cq_wait_;
  bool kicked_ = false;
  uint64_t pages_reclaimed_ = 0;
  uint64_t writebacks_inflight_ = 0;
  OpTable ops_;  // In-flight write-backs (retry on) and re-silver copies.
  struct WbPage {
    uint32_t remaining = 0;  // Replica WQEs still unsettled.
    uint32_t succeeded = 0;  // Replica WQEs that completed OK.
  };
  std::unordered_map<uint64_t, WbPage> wb_pages_;  // By vpage.
  uint64_t writeback_aborts_ = 0;
  std::vector<uint32_t> wb_targets_scratch_;
  std::vector<Completion> wb_batch_;  // DrainWriteCompletions poll scratch.

  std::deque<ResilverWork> resilver_q_;
  std::unordered_map<uint64_t, ResilverOp> resilver_ops_;      // By wr_id.
  std::unordered_map<uint32_t, uint64_t> resilver_pending_;    // Node -> pages left.
  bool resilver_tick_armed_ = false;
  uint64_t pages_resilvered_ = 0;
  uint64_t resilver_failures_ = 0;
  uint64_t resilver_frames_ = 0;

  std::unordered_map<uint64_t, ScrubOp> scrub_ops_;  // By wr_id.
  SimTime scrub_until_ = 0;
  bool scrub_tick_armed_ = false;
  bool scrub_pass_open_ = false;
  uint64_t scrub_cursor_page_ = 0;
  uint32_t scrub_cursor_slot_ = 0;
  uint32_t scrub_issued_in_pass_ = 0;
  uint32_t scrub_finds_in_pass_ = 0;
  uint64_t scrub_pass_ = 0;
  uint64_t scrub_frames_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_MEM_RECLAIMER_H_
