// System-level configuration and the four evaluated system presets (§5).
//
//   SystemConfig::Adios()  — yield-based fault handling, PF-aware dispatch,
//                            polling delegation, proactive reclaimer.
//   SystemConfig::DiLOS()  — busy-waiting fault handling, round-robin
//                            dispatch, synchronous TX.
//   SystemConfig::DiLOSP() — DiLOS + Concord-style cooperative preemption
//                            with a 5 us interval.
//   SystemConfig::Hermit() — kernel-based busy-waiting MD: extra trap and
//                            kernel network-stack costs plus background
//                            kernel interference that inflates the tail.

#ifndef ADIOS_SRC_CORE_SYSTEM_CONFIG_H_
#define ADIOS_SRC_CORE_SYSTEM_CONFIG_H_

#include <string>

#include "src/base/time.h"
#include "src/check/check_options.h"
#include "src/ctrl/ctrl_config.h"
#include "src/integrity/integrity_config.h"
#include "src/mem/reclaimer.h"
#include "src/rdma/fault_injector.h"
#include "src/rdma/node_health.h"
#include "src/rdma/params.h"
#include "src/sched/config.h"
#include "src/unithread/universal_stack.h"

namespace adios {

struct SystemConfig {
  std::string name = "Adios";
  uint32_t num_workers = 8;      // Paper setup: 8 workers + dispatcher + reclaimer.
  CycleClock clock{2000};        // 2.0 GHz Xeon Gold 6330.

  SchedConfig sched;
  FabricParams fabric;
  Reclaimer::Options reclaim;

  // Fault injection (docs/FAULT_MODEL.md). All-zero by default: the fabric
  // stays ideal and the datapath is bit-identical to a build without the
  // injector. When any knob is set (fault.enabled()), MdSystem installs the
  // injector and switches on the deadline/retry pipeline below.
  FaultInjector::Options fault;
  // Timeout/retry/backoff policy shared by the workers' fetch path and the
  // reclaimer's write-back path. `retry.enabled` is forced on whenever
  // fault.enabled(); set it explicitly to run the pipeline on an ideal
  // fabric (e.g. in tests).
  RetryPolicy retry;

  // Memory-node replication (docs/FAILOVER.md). Defaults to a single node,
  // which is bit-identical to the pre-replication system: no placement map,
  // no health monitor, no extra engine events. With num_nodes > 1, pages are
  // placed primary+secondary across nodes, reads fail over on retry
  // exhaustion or node suspicion, and recovered nodes are re-silvered in the
  // background.
  ReplicationConfig replication;

  // SLO-aware overload control (docs/OVERLOAD.md). Default-off and
  // bit-identical to the pre-controller system: no controller is built, no
  // tick events enter the engine, and the dispatcher's ctrl hooks stay null.
  // Enable any of admission/shedding/scaling via its flag in CtrlConfig.
  CtrlConfig ctrl;

  // End-to-end data integrity (docs/INTEGRITY.md). Default-off and
  // bit-identical to the pre-integrity system: no checksum map is built, no
  // verify cycles are charged, and no scrub events enter the engine. Enable
  // `verify` for checksum-verified fetches (forces retry.enabled so detected
  // corruption can retry/fail over), `scrub` for the background scrubber,
  // or `oracle` to count silently-served corruption without changing the
  // datapath.
  IntegrityConfig integrity;

  // Paging granularity (log2 bytes): 12 = 4 KiB compute-node pages as in
  // the paper; 21 = 2 MiB huge pages (512x I/O amplification, §5.2).
  uint32_t page_shift = 12;

  // Local DRAM cache size as a fraction of the working set (paper default
  // 20%); local_pages_override wins when nonzero.
  double local_memory_ratio = 0.2;
  uint64_t local_pages_override = 0;
  double reclaim_low_watermark = 0.15;
  double reclaim_high_watermark = 0.20;

  // Lock-free paging-datapath knobs (docs/DATAPATH.md). All default to the
  // seed's serialized-equivalent behavior and are event-stream bit-identical
  // when left off.
  // Clock shards for the ResidentPageSet; 0 keeps the dense clock hand.
  uint32_t clock_shards = 0;
  // Per-worker free-frame credit cache size; 0 disables the caches.
  uint32_t frame_cache_size = 0;
  // Synchronization-cost model for paging ops and its parameters
  // (nanoseconds, decoupled from the CPU clock).
  MmSyncModel sync_model = MmSyncModel::kNone;
  uint64_t sync_hold_ns = 0;
  uint64_t sync_cas_ns = 0;

  UnithreadPool::Options pool = DefaultPool();

  // Runtime invariant checking (src/check/). MdSystem also enables this
  // when the ADIOS_CHECKS=1 environment variable is set.
  CheckOptions check;

  uint64_t seed = 1;

  static UnithreadPool::Options DefaultPool() {
    UnithreadPool::Options p;
    // The paper pre-allocates 131,072 unithreads; the simulation's in-flight
    // population is far smaller, so presets default to 8192 buffers (still
    // >10x any observed peak). The arena is demand-faulted, so host memory
    // goes only to buffers actually handed out. Stacks are roomy because
    // handlers execute real C++ on them.
    p.count = 8192;
#if defined(__SANITIZE_ADDRESS__)
    // ASan redzones inflate every frame; double the universal stacks so the
    // sanitized build exercises the same code without overflowing.
    p.buffer_size = 64 * 1024;
#else
    p.buffer_size = 32 * 1024;
#endif
    p.mtu = 1536;
    return p;
  }

  static SystemConfig Adios() {
    SystemConfig c;
    c.name = "Adios";
    c.sched.fault_policy = FaultPolicy::kYield;
    c.sched.dispatch_policy = DispatchPolicy::kPfAware;
    c.sched.polling_delegation = true;
    c.reclaim.proactive = true;
    return c;
  }

  static SystemConfig DiLOS() {
    SystemConfig c;
    c.name = "DiLOS";
    c.sched.fault_policy = FaultPolicy::kBusyWait;
    c.sched.dispatch_policy = DispatchPolicy::kRoundRobin;
    c.sched.polling_delegation = false;
    c.sched.yield_bookkeeping_cycles = 0;  // No yield path: simpler code.
    c.reclaim.proactive = true;  // DiLOS also runs a unikernel reclaimer.
    return c;
  }

  static SystemConfig DiLOSP() {
    SystemConfig c = DiLOS();
    c.name = "DiLOS-P";
    c.sched.preemption = true;
    c.sched.preempt_interval_ns = 5000;
    return c;
  }

  // Infiniswap-class baseline (§7, [21]): paging MD with yield-based fault
  // handling through the *kernel* scheduler — heavyweight thread switches
  // (~4 us, [40]) and scheduler wake-up delays swallow the fetch-overlap
  // benefit; the paper measured 582 us - 73 ms P99.9 and 261 KRPS.
  static SystemConfig Infiniswap() {
    SystemConfig c;
    c.name = "Infiniswap";
    c.sched.fault_policy = FaultPolicy::kKernelYield;
    c.sched.dispatch_policy = DispatchPolicy::kRoundRobin;
    c.sched.polling_delegation = false;
    c.sched.yield_bookkeeping_cycles = 0;
    c.sched.kernel_fault_extra_cycles = 14000;   // Kernel swap-in path (~7 us).
    c.sched.kernel_request_extra_cycles = 2400;  // Kernel network stack.
    c.sched.kernel_ctx_switch_cycles = 8000;     // ~4 us thread switch [40].
    c.sched.kernel_sched_delay_ns = 30000;       // Scheduler wake-up latency.
    c.sched.kernel_jitter_prob = 0.002;
    c.sched.kernel_jitter_min_cycles = 60000;
    c.sched.kernel_jitter_max_cycles = 500000;
    return c;
  }

  static SystemConfig Hermit() {
    SystemConfig c;
    c.name = "Hermit";
    c.sched.fault_policy = FaultPolicy::kKernelBusyWait;
    c.sched.dispatch_policy = DispatchPolicy::kRoundRobin;
    c.sched.polling_delegation = false;
    c.sched.yield_bookkeeping_cycles = 0;
    // Kernel page-fault trap + return around the (async-optimized) handler.
    c.sched.kernel_fault_extra_cycles = 2600;
    // Kernel network stack (softirq + socket) per request, each direction.
    c.sched.kernel_request_extra_cycles = 2400;
    // Background kernel interference: rare long holds that dominate P99.9.
    c.sched.kernel_jitter_prob = 0.002;
    c.sched.kernel_jitter_min_cycles = 60000;    // 30 us
    c.sched.kernel_jitter_max_cycles = 500000;   // 250 us
    // Kernel thread switching is too slow to make yielding pay off — Hermit
    // busy-waits, so context-switch costs barely matter; keep the default.
    c.reclaim.proactive = true;
    return c;
  }
};

}  // namespace adios

#endif  // ADIOS_SRC_CORE_SYSTEM_CONFIG_H_
