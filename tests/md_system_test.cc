// End-to-end integration tests over the four system presets.

#include "src/core/md_system.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/apps/array_app.h"
#include "src/apps/memcached_app.h"
#include "src/apps/rocksdb_app.h"
#include "src/sim/trace.h"

namespace adios {
namespace {

ArrayApp::Options SmallArray() {
  ArrayApp::Options o;
  o.entries = 1 << 15;  // 2 MiB working set: fast tests.
  return o;
}

RunResult RunArray(SystemConfig cfg, double rps, SimDuration measure = Milliseconds(10),
                   ArrayApp::Options ao = SmallArray()) {
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  return sys.Run(rps, Milliseconds(4), measure);
}

TEST(MdSystem, AdiosCompletesAndConserves) {
  RunResult r = RunArray(SystemConfig::Adios(), 200000);
  EXPECT_GT(r.measured, 1000u);
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_GT(r.e2e.P50(), 1000u);  // Sane microsecond-scale latency.
  EXPECT_LT(r.e2e.P50(), 50000u);
}

TEST(MdSystem, AllPresetsComplete) {
  for (const SystemConfig& cfg :
       {SystemConfig::Adios(), SystemConfig::DiLOS(), SystemConfig::DiLOSP(),
        SystemConfig::Hermit()}) {
    RunResult r = RunArray(cfg, 150000);
    EXPECT_EQ(r.sent, r.completed + r.dropped) << cfg.name;
    EXPECT_GT(r.measured, 500u) << cfg.name;
  }
}

TEST(MdSystem, DeterministicAcrossIdenticalRuns) {
  RunResult a = RunArray(SystemConfig::Adios(), 250000);
  RunResult b = RunArray(SystemConfig::Adios(), 250000);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.e2e.P50(), b.e2e.P50());
  EXPECT_EQ(a.e2e.Percentile(99.9), b.e2e.Percentile(99.9));
  EXPECT_EQ(a.mem.faults, b.mem.faults);
}

TEST(MdSystem, MostAccessesFaultAtTwentyPercentLocal) {
  RunResult r = RunArray(SystemConfig::DiLOS(), 200000);
  // 20% local memory => once warm, ~80% of requests fault.
  const double fault_rate =
      static_cast<double>(r.mem.faults) / static_cast<double>(r.completed);
  EXPECT_GT(fault_rate, 0.6);
  EXPECT_LT(fault_rate, 1.0);
}

TEST(MdSystem, FullLocalMemoryEliminatesSteadyStateFaults) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.local_memory_ratio = 1.0;
  ArrayApp app(SmallArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(200000, Milliseconds(8), Milliseconds(8));
  // Cold misses only: bounded by the working-set page count.
  EXPECT_LE(r.mem.faults, sys.memory_manager().page_table().num_pages());
  EXPECT_EQ(r.mem.evictions_clean + r.mem.evictions_dirty, 0u);
}

TEST(MdSystem, YieldPolicyActuallyYields) {
  RunResult adios = RunArray(SystemConfig::Adios(), 200000);
  RunResult dilos = RunArray(SystemConfig::DiLOS(), 200000);
  EXPECT_GT(adios.worker_yields, 100u);
  EXPECT_EQ(dilos.worker_yields, 0u);
}

TEST(MdSystem, OverloadDropsAndCapsThroughput) {
  // Far beyond DiLOS's capacity: open-loop arrivals must drop and the
  // throughput must stay near the service capacity.
  RunResult r = RunArray(SystemConfig::DiLOS(), 3500000, Milliseconds(15));
  EXPECT_GT(r.dropped, 0u);
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_LT(r.throughput_rps, 2.6e6);
}

TEST(MdSystem, AdiosBeatsDiLosTailUnderHighLoad) {
  // The headline claim: at loads near DiLOS saturation, Adios' yield-based
  // fault handling collapses the tail.
  const double rps = 1.8e6;
  ArrayApp::Options ao;
  ao.entries = 1 << 18;  // 16 MiB: big enough for stable 20% behavior.
  RunResult adios = RunArray(SystemConfig::Adios(), rps, Milliseconds(15), ao);
  RunResult dilos = RunArray(SystemConfig::DiLOS(), rps, Milliseconds(15), ao);
  EXPECT_LT(adios.e2e.Percentile(99.9) * 2, dilos.e2e.Percentile(99.9));
  EXPECT_LT(adios.e2e.P99(), dilos.e2e.P99());
}

TEST(MdSystem, AdiosSlightlySlowerAtLowLoad) {
  // §5.1/§6: at low load the yield path adds a few hundred nanoseconds.
  RunResult adios = RunArray(SystemConfig::Adios(), 100000);
  RunResult dilos = RunArray(SystemConfig::DiLOS(), 100000);
  EXPECT_GE(adios.e2e.P50() + 64, dilos.e2e.P50());  // Adios not better...
  EXPECT_LT(adios.e2e.P50(), dilos.e2e.P50() + 2000);  // ...by much.
}

TEST(MdSystem, HermitPaysKernelCosts) {
  ArrayApp::Options ao;
  ao.entries = 1 << 17;  // Realistic cache pressure.
  RunResult hermit = RunArray(SystemConfig::Hermit(), 150000, Milliseconds(10), ao);
  RunResult dilos = RunArray(SystemConfig::DiLOS(), 150000, Milliseconds(10), ao);
  EXPECT_GT(hermit.e2e.P50(), dilos.e2e.P50() + 2000);
  EXPECT_GT(hermit.e2e.Percentile(99.9), 4 * dilos.e2e.Percentile(99.9));
}

TEST(MdSystem, PollingDelegationRecyclesViaDispatcher) {
  RunResult r = RunArray(SystemConfig::Adios(), 200000);
  // Every completed request's buffer came back through the dispatcher CQ.
  // (Recycle count can exceed measured completions due to warmup traffic.)
  EXPECT_GE(r.measured, 1000u);
}

TEST(MdSystem, BreakdownRowsAreConsistent) {
  RunResult r = RunArray(SystemConfig::DiLOS(), 1000000, Milliseconds(10));
  auto rows = r.Breakdown({10, 50, 99, 99.9});
  ASSERT_EQ(rows.size(), 4u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].total_ns, rows[i - 1].total_ns);  // Sorted by total.
  }
  for (const auto& row : rows) {
    EXPECT_LE(row.queue_ns + row.handle_ns, row.total_ns + 1000);
    EXPECT_LE(row.busy_wait_ns, row.rdma_ns + row.tx_wait_ns + 1000);
  }
}

TEST(MdSystem, BusyWaitVisibleOnlyInBusyPolicies) {
  RunResult dilos = RunArray(SystemConfig::DiLOS(), 1000000);
  RunResult adios = RunArray(SystemConfig::Adios(), 1000000);
  uint64_t dilos_busy = 0;
  uint64_t adios_busy = 0;
  for (const auto& s : dilos.samples) {
    dilos_busy += s.busy_ns;
  }
  for (const auto& s : adios.samples) {
    adios_busy += s.busy_ns;
  }
  EXPECT_GT(dilos_busy, 0u);
  EXPECT_EQ(adios_busy, 0u);
}

TEST(MdSystem, PreemptionFiresOnScanHeavyWorkload) {
  RocksDbApp::Options ro;
  ro.num_keys = 1 << 14;
  ro.value_bytes = 256;
  ro.scan_fraction = 0.05;
  RocksDbApp app(ro);
  MdSystem sys(SystemConfig::DiLOSP(), &app);
  RunResult r = sys.Run(120000, Milliseconds(5), Milliseconds(15));
  EXPECT_GT(r.requeues, 0u);  // SCANs exceeded the 5 us quantum.
  EXPECT_EQ(r.sent, r.completed + r.dropped);
}

TEST(MdSystem, NoWorkerWedgesUnderPacketLoss) {
  // 1% READ loss: without the deadline/retry pipeline workers would block
  // forever on fetches whose completions never arrive. With it, every
  // request drains and no frame leaks (docs/FAULT_MODEL.md).
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fault.read_loss_rate = 0.01;
  ArrayApp app(SmallArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(200000, Milliseconds(4), Milliseconds(10));
  EXPECT_GT(r.measured, 1000u);
  EXPECT_EQ(r.sent, r.completed + r.dropped);  // All in-flight work drained.
  EXPECT_GT(r.fetch_retries, 0u);
  EXPECT_EQ(r.requests_failed, 0u);  // Budget of 6 retries absorbs 1% loss.
  // Frame balance at drain: used frames exactly cover resident pages plus
  // in-flight fetches and write-backs — retries leaked nothing.
  MemoryManager& mm = sys.memory_manager();
  const uint64_t used = mm.options().local_pages - mm.free_frames();
  EXPECT_EQ(used, mm.page_table().resident_pages() + mm.page_table().fetching_pages() +
                      sys.reclaimer().writebacks_inflight());
  EXPECT_EQ(mm.page_table().fetching_pages(), 0u);
}

// --- Replication / failover (docs/FAILOVER.md) ---

SystemConfig ReplicatedBlackoutConfig() {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.replication.num_nodes = 2;
  cfg.replication.replicas = 2;
  // Node 0 goes completely dark for 1 ms in the middle of the measurement
  // window ([4 ms warmup, 14 ms] overall).
  cfg.fault.blackout_start_ns = Milliseconds(7);
  cfg.fault.blackout_duration_ns = Milliseconds(1);
  cfg.fault.blackout_node = 0;
  return cfg;
}

TEST(MdSystem, BlackoutWithReplicaFailsOverWithZeroFailedRequests) {
  ArrayApp app(SmallArray());
  MdSystem sys(ReplicatedBlackoutConfig(), &app);
  RunResult r = sys.Run(200000, Milliseconds(4), Milliseconds(10));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_GT(r.measured, 1000u);
  // The headline property: with a live replica, a full node outage fails
  // zero requests — every exhausted or suspect fetch fails over instead of
  // aborting.
  EXPECT_EQ(r.requests_failed, 0u);
  EXPECT_GT(r.failovers, 0u);
  EXPECT_GE(r.node_suspect_events, 1u);
  EXPECT_GE(r.node_dead_events, 1u);
  // The blackout ends well before the drain completes: the node must have
  // been probed back and re-silvered by run end.
  EXPECT_GE(r.node_recoveries, 1u);
  EXPECT_EQ(r.replica_divergence, 0u);
}

TEST(MdSystem, BlackoutFailoverIsDeterministic) {
  auto run = [] {
    ArrayApp app(SmallArray());
    MdSystem sys(ReplicatedBlackoutConfig(), &app);
    return sys.Run(200000, Milliseconds(4), Milliseconds(10));
  };
  RunResult a = run();
  RunResult b = run();
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.fetch_retries, b.fetch_retries);
  EXPECT_EQ(a.node_suspect_events, b.node_suspect_events);
  EXPECT_EQ(a.node_dead_events, b.node_dead_events);
  EXPECT_EQ(a.pages_resilvered, b.pages_resilvered);
  EXPECT_EQ(a.e2e.P50(), b.e2e.P50());
  EXPECT_EQ(a.e2e.Percentile(99.9), b.e2e.Percentile(99.9));
}

TEST(MdSystem, BlackoutDivergenceIsResilvered) {
  // A write-heavy workload dirties pages, so write-backs to the dead node
  // are dropped (divergence) and the re-silver pass must repair them after
  // recovery.
  SystemConfig cfg = ReplicatedBlackoutConfig();
  MemcachedApp::Options mo;
  mo.num_keys = 1 << 14;
  mo.set_fraction = 0.4;
  MemcachedApp app(mo);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(150000, Milliseconds(4), Milliseconds(10));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_EQ(r.requests_failed, 0u);
  EXPECT_GT(r.divergence_events, 0u);   // Replicas did diverge during the outage...
  EXPECT_EQ(r.replica_divergence, 0u);  // ...and were all repaired by run end.
  EXPECT_GT(r.pages_resilvered, 0u);
  EXPECT_GE(r.node_recoveries, 1u);
}

TEST(MdSystem, SingleNodeResultsUnchangedByReplicationCode) {
  // replication.num_nodes = 1 (the default) must be bit-identical to the
  // pre-replication system: same arrivals, same fetch wr_ids, same event
  // order. Faulted single-node runs still abort on retry exhaustion.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.fault.blackout_start_ns = Milliseconds(7);
  cfg.fault.blackout_duration_ns = Milliseconds(1);
  ArrayApp app(SmallArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(200000, Milliseconds(4), Milliseconds(10));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_GT(r.requests_failed, 0u);  // No replica: the outage aborts requests.
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_EQ(r.node_suspect_events, 0u);
  EXPECT_EQ(r.divergence_events, 0u);
}

// --- Data integrity (docs/INTEGRITY.md) ---

TEST(MdSystem, DemandDetectedCorruptionIsRepairedFromReplica) {
  // Wire-corrupted READs on a replicated fabric: verify-on-fetch catches
  // each one before it is mapped, the fetch fails over to the other copy,
  // and the quarantined slot is repaired in the background. No request may
  // consume bad bytes or abort.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.replication.num_nodes = 2;
  cfg.replication.replicas = 2;
  cfg.integrity.verify = true;
  cfg.fault.corrupt_rate = 1e-3;
  ArrayApp app(SmallArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(200000, Milliseconds(4), Milliseconds(10));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  ASSERT_TRUE(r.integrity.enabled);
  EXPECT_GT(r.integrity.detected, 0u);
  EXPECT_EQ(r.integrity.unrepairable, 0u);  // A second copy always exists.
  EXPECT_EQ(r.integrity.served_corrupt, 0u);
  EXPECT_EQ(r.requests_failed, 0u);
  EXPECT_GT(r.failovers, 0u);  // Corrupt fetches failed over, not aborted.
  // Conservation law: every detection is either repaired or still queued.
  uint64_t outstanding = 0;
  sys.integrity()->ForEachOutstanding([&](uint64_t, uint32_t) { ++outstanding; });
  EXPECT_EQ(r.integrity.detected, r.integrity.repaired + outstanding);
  // The metric probes tell the same story as the RunResult counters.
  EXPECT_EQ(static_cast<uint64_t>(r.metrics.Value("integrity.detected")),
            r.integrity.detected);
  EXPECT_EQ(static_cast<uint64_t>(r.metrics.Value("integrity.repaired")),
            r.integrity.repaired);
}

TEST(MdSystem, ScrubFindsStorePoisonedPagesDemandTrafficMisses) {
  // Poisoned WRITE-backs with demand verification off: only the background
  // scrubber can find the bad stored copies. A write-heavy memcached
  // workload dirties pages, some write-backs poison their slot, and the
  // scrub pass sweeps them out.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.replication.num_nodes = 2;
  cfg.replication.replicas = 2;
  cfg.integrity.scrub = true;  // verify stays off: demand path is blind.
  cfg.integrity.scrub_bw_gbps = 4.0;    // Cover the small heap within the run.
  cfg.fault.write_poison_rate = 5e-3;
  MemcachedApp::Options mo;
  mo.num_keys = 1 << 13;
  mo.set_fraction = 0.4;
  MemcachedApp app(mo);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(150000, Milliseconds(4), Milliseconds(10));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  ASSERT_TRUE(r.integrity.enabled);
  EXPECT_GT(r.integrity.scrub_pages, 0u);  // The scrubber actually ran...
  EXPECT_GT(r.integrity.scrub_finds, 0u);  // ...and found poisoned slots...
  EXPECT_GT(r.integrity.repaired, 0u);     // ...which were healed in place.
  EXPECT_EQ(r.integrity.unrepairable, 0u);
  EXPECT_EQ(r.requests_failed, 0u);
}

TEST(MdSystem, SingleNodeVerifyDetectsButCannotRepair) {
  // R1 + verify: detection without a second copy. Store-poisoned pages fail
  // every re-read, exhaust the retry budget, and abort their requests; the
  // slots stay unrepairable.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.integrity.verify = true;
  cfg.fault.write_poison_rate = 5e-3;
  MemcachedApp::Options mo;  // Write-heavy: read-only workloads never
  mo.num_keys = 1 << 14;     // write back, so nothing can poison.
  mo.set_fraction = 0.4;
  MemcachedApp app(mo);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(200000, Milliseconds(4), Milliseconds(10));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  ASSERT_TRUE(r.integrity.enabled);
  EXPECT_GT(r.integrity.detected, 0u);
  EXPECT_GT(r.integrity.unrepairable, 0u);
  EXPECT_GT(r.requests_failed, 0u);  // Unrepairable pages abort their readers.
  EXPECT_EQ(r.failovers, 0u);        // Nowhere to fail over to.
  uint64_t outstanding = 0;
  sys.integrity()->ForEachOutstanding([&](uint64_t, uint32_t) { ++outstanding; });
  EXPECT_EQ(r.integrity.detected, r.integrity.repaired + outstanding);
}

TEST(MdSystem, VerifyOffOracleServesCorruptionWithoutFailing) {
  // The poison oracle: verification off, ledger on. Corrupted payloads are
  // mapped and consumed — nothing fails, nothing retries on their account,
  // and the ledger counts exactly what the app silently ate.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.integrity.oracle = true;
  cfg.fault.corrupt_rate = 1e-3;
  ArrayApp app(SmallArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(200000, Milliseconds(4), Milliseconds(10));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  ASSERT_TRUE(r.integrity.enabled);
  EXPECT_GT(r.integrity.served_corrupt, 0u);
  EXPECT_EQ(r.integrity.detected, 0u);  // Nothing inspects, nothing detects.
  EXPECT_EQ(r.requests_failed, 0u);
}

TEST(MdSystem, IntegrityOffIsEventStreamIdenticalEvenUnderCorruption) {
  // With every integrity knob at its default-off value, no layer is built:
  // non-enabling knob changes — and even live corruption on the fabric —
  // must leave the event stream bit-identical to the seed run. Corruption
  // with no verifier is invisible by design; that is the oracle's point.
  auto run = [](bool touch_knobs) {
    SystemConfig cfg = SystemConfig::Adios();
    if (touch_knobs) {
      cfg.integrity.verify_cycles = 9999;  // Would change timing if enabled.
      cfg.integrity.scrub_bw_gbps = 99.0;
      cfg.integrity.scrub_batch_pages = 1;
      cfg.integrity.checksum_seed = 7;
      cfg.fault.corrupt_rate = 1e-3;  // Corrupts payloads; nobody looks.
      cfg.fault.write_poison_rate = 1e-3;
    }
    ArrayApp app(SmallArray());
    MdSystem sys(cfg, &app);
    sys.tracer().Enable(1 << 21);
    RunResult r = sys.Run(250000, Milliseconds(2), Milliseconds(5));
    EXPECT_FALSE(r.integrity.enabled);
    EXPECT_EQ(r.integrity.detected + r.integrity.repaired + r.integrity.scrub_pages +
                  r.integrity.served_corrupt,
              0u);
    return sys.tracer().records();
  };
  const std::vector<TraceRecord> baseline = run(false);
  const std::vector<TraceRecord> corrupted = run(true);
  ASSERT_GT(baseline.size(), 0u);
  ASSERT_EQ(baseline.size(), corrupted.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(baseline[i], corrupted[i]) << "first divergence at record " << i;
    ASSERT_NE(baseline[i].event, TraceEvent::kCorrupt);
    ASSERT_NE(baseline[i].event, TraceEvent::kScrubStart);
    ASSERT_NE(baseline[i].event, TraceEvent::kScrubDone);
  }
}

// --- Overload control (docs/OVERLOAD.md) ---

TEST(MdSystem, CtrlDropsReconcileWithArrivals) {
  // Admission pinned far below the offered load: the surplus must be dropped
  // at arrival, and every ledger must balance — loadgen conservation,
  // dispatcher drop accounting, RunResult counters, and the ctrl.* metrics
  // all tell the same story.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.ctrl.admission_enabled = true;
  cfg.ctrl.admit_rate_rps = 150000;
  cfg.ctrl.admit_burst = 32;
  cfg.ctrl.shed_enabled = true;
  cfg.ctrl.shed_pf_knee = 4.0;
  ArrayApp app(SmallArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(500000, Milliseconds(4), Milliseconds(10));
  ASSERT_TRUE(r.ctrl.enabled);
  EXPECT_GT(r.ctrl.admit_drops, 0u);
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  // Offered load is far below RX-ring capacity once admission shaves it, so
  // every drop is a controller decision: the dispatcher's drop counter (and
  // the loadgen's, which mirrors it) is exactly admit + shed.
  EXPECT_EQ(r.dispatcher_drops, r.ctrl.admit_drops + r.ctrl.shed_drops);
  EXPECT_EQ(r.dropped, r.dispatcher_drops);
  // Admitted throughput lands near the admission rate, not the offered rate.
  EXPECT_LT(r.throughput_rps, 250000.0);
  EXPECT_GT(r.throughput_rps, 100000.0);
  // The registry's ctrl.* probes agree with the RunResult counters.
  EXPECT_EQ(static_cast<uint64_t>(r.metrics.Value("ctrl.admit_drops")), r.ctrl.admit_drops);
  EXPECT_EQ(static_cast<uint64_t>(r.metrics.Value("ctrl.shed_drops")), r.ctrl.shed_drops);
}

TEST(MdSystem, CtrlScaleDownEngagesAtLowLoad) {
  // At a fraction of capacity the queue sits empty, so elastic scaling must
  // shrink the active set toward min_workers — and the run must still
  // complete everything it admitted.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.ctrl.scale_enabled = true;
  cfg.ctrl.min_workers = 2;
  ArrayApp app(SmallArray());
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(150000, Milliseconds(4), Milliseconds(10));
  ASSERT_TRUE(r.ctrl.enabled);
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_EQ(r.dropped, 0u);  // Scaling alone never drops.
  EXPECT_GT(r.ctrl.scale_downs, 0u);
  EXPECT_LT(r.ctrl.mean_active_workers, 8.0);
  EXPECT_GE(r.ctrl.mean_active_workers, 2.0);
}

TEST(MdSystem, CtrlDisabledIsEventStreamIdenticalToSeed) {
  // Non-enabling ctrl knob changes (rates, knees, bounds — but no *_enabled
  // flag) must leave the run bit-identical to the default config: no
  // controller is built, no tick events enter the engine, no kAdmit/kShed/
  // kScale records appear.
  auto run = [](bool touch_knobs) {
    SystemConfig cfg = SystemConfig::Adios();
    if (touch_knobs) {
      cfg.ctrl.admit_rate_rps = 1000.0;  // Would throttle hard if enabled.
      cfg.ctrl.shed_pf_knee = 1.0;
      cfg.ctrl.min_workers = 3;
      cfg.ctrl.tick_ns = Microseconds(5);
    }
    ArrayApp app(SmallArray());
    MdSystem sys(cfg, &app);
    sys.tracer().Enable(1 << 21);
    RunResult r = sys.Run(250000, Milliseconds(2), Milliseconds(5));
    EXPECT_FALSE(r.ctrl.enabled);
    EXPECT_EQ(r.ctrl.admit_drops + r.ctrl.shed_drops + r.ctrl.scale_ups + r.ctrl.scale_downs,
              0u);
    return sys.tracer().records();
  };
  const std::vector<TraceRecord> baseline = run(false);
  const std::vector<TraceRecord> knobs = run(true);
  ASSERT_GT(baseline.size(), 0u);
  ASSERT_EQ(baseline.size(), knobs.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(baseline[i], knobs[i]) << "first divergence at record " << i;
    ASSERT_NE(baseline[i].event, TraceEvent::kAdmit);
    ASSERT_NE(baseline[i].event, TraceEvent::kShed);
    ASSERT_NE(baseline[i].event, TraceEvent::kScale);
  }
}

TEST(MdSystem, RdmaUtilizationScalesWithLoad) {
  RunResult lo = RunArray(SystemConfig::Adios(), 300000);
  RunResult hi = RunArray(SystemConfig::Adios(), 1200000);
  EXPECT_GT(hi.rdma_utilization, 1.5 * lo.rdma_utilization);
}

// A system torn down with requests still in flight must free them: the load
// generator owns every request it emits. Under LeakSanitizer a leaked
// request fails this binary at exit.
TEST(MdSystem, DestroyedWithRequestsInFlightFreesThem) {
  ArrayApp app(SmallArray());
  RunResult r;
  {
    MdSystem sys(SystemConfig::Adios(), &app);
    // Cut the measurement window short mid-stream: Run() returns without
    // draining, so the system is destroyed below with requests in flight.
    sys.engine().Schedule(Milliseconds(5), [&sys] { sys.engine().Stop(); });
    r = sys.Run(1e6, Milliseconds(4), Milliseconds(10));
  }
  EXPECT_GT(r.sent, r.completed + r.dropped);
  EXPECT_GT(r.completed, 0u);
}

// A woken yield-policy frame waiter whose page another handler fetched
// meanwhile leaves without a frame. It must pass its wake-up on: each frame
// release wakes one waiter, and once the reclaimer stops at its high
// watermark nothing else would wake the rest. The serialized 8-worker
// datapath at 9 MRPS (bench_scalability's config) used to end Run() with
// 2,087 requests parked behind 655 free frames.
TEST(MdSystem, FrameWaitersNeverStrandBehindFreeFrames) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.num_workers = 8;
  cfg.fabric.link_gbps = 400.0;
  cfg.fabric.wqe_process_ns = 60;
  cfg.sync_model = MmSyncModel::kGlobalLock;
  cfg.sync_hold_ns = 800;
  ArrayApp::Options ao;
  ao.entries = 1 << 20;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  const RunResult r = sys.Run(9e6, Milliseconds(4), Milliseconds(10));
  EXPECT_GT(sys.memory_manager().stats().frame_stalls, 0u);  // Frame waiters do park.
  // Failed requests reply too, so they are part of `completed`.
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_EQ(sys.memory_manager().frame_waiter_count(), 0u);
}

// Victim selection has no scan budget: a sharded clock scans until it finds
// a victim or completes one full sweep. On the baseline array run (4 Mi
// entries, 1.5 MRPS, bench timing) with 8 clock shards, the removed budget
// knob cost 6.9 ms (budget 64) or 299 us (budget 256) at P99, with
// thousands of frame stalls; with the full sweep P99 stays at the
// knobs-off 7.8 us. The bound is twice that.
TEST(MdSystem, ShardedClockBaselineKeepsTailAndNeverStallsOnFrames) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.clock_shards = 8;
  ArrayApp::Options ao;
  ao.entries = 4u << 20;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  const RunResult r = sys.Run(1.5e6, Milliseconds(8), Milliseconds(25));
  EXPECT_LE(r.e2e.P99(), 15600u);
  EXPECT_EQ(sys.memory_manager().stats().frame_stalls, 0u);
  EXPECT_EQ(r.dropped, 0u);
}

}  // namespace
}  // namespace adios
