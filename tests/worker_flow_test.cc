// Fine-grained request-flow behavior observed through system introspection.

#include <gtest/gtest.h>

#include "src/apps/array_app.h"
#include "src/core/md_system.h"

namespace adios {
namespace {

TEST(WorkerFlow, RemoteRequestRdmaWaitMatchesFetchLatency) {
  // At near-zero load, a faulting request's rdma_wait must be one unloaded
  // fetch: 2-3 us plus handler costs (the paper's headline constant).
  ArrayApp::Options ao;
  ao.entries = 1 << 15;
  ArrayApp app(ao);
  MdSystem sys(SystemConfig::Adios(), &app);
  RunResult r = sys.Run(20000, Milliseconds(4), Milliseconds(10));
  uint64_t n_faulting = 0;
  for (const auto& s : r.samples) {
    if (s.faults == 1) {
      ++n_faulting;
      EXPECT_GE(s.rdma_ns, 2000u);
      EXPECT_LE(s.rdma_ns, 4500u);
    }
  }
  EXPECT_GT(n_faulting, 50u);
}

// A fetch deadline that fires while the worker verifies that fetch's
// completion (the verify's Consume suspends the worker) fails the fetch and
// drops its op from the worker's OpTable. DrainMemCq must re-find the op
// after the verify and drop the completion as late; holding the old pointer
// across the verify reads a freed map node (the AddressSanitizer leg
// reports it).
TEST(WorkerFlow, DeadlineInsideVerifyDropsCompletion) {
  SystemConfig cfg = SystemConfig::Adios();
  cfg.retry.enabled = true;
  cfg.retry.max_retries = 0;  // The first deadline exhausts the budget.
  cfg.retry.timeout_ns = 8000;
  cfg.integrity.verify = true;
  cfg.integrity.verify_cycles = 40000;  // 20 us: spans every deadline.
  ArrayApp::Options ao;
  ao.entries = 1 << 15;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(20000, Milliseconds(1), Milliseconds(2));
  EXPECT_GT(r.fetch_timeouts, 0u);
  EXPECT_GT(r.requests_failed, 0u);
  EXPECT_EQ(r.completed, r.sent - r.dropped);
  for (const auto& w : sys.workers()) {
    EXPECT_EQ(w->OutstandingFaults(), 0u);
  }
}

TEST(WorkerFlow, LocalRequestsHaveNoRdmaComponent) {
  ArrayApp::Options ao;
  ao.entries = 1 << 15;
  ArrayApp app(ao);
  MdSystem sys(SystemConfig::Adios(), &app);
  RunResult r = sys.Run(100000, Milliseconds(4), Milliseconds(10));
  for (const auto& s : r.samples) {
    if (s.faults == 0) {
      EXPECT_EQ(s.rdma_ns, 0u);
      EXPECT_LT(s.server_ns, 10000u);  // Local hits stay in single-digit us.
    }
  }
}

TEST(WorkerFlow, QpDepthClampedToFrameBudget) {
  // The provisioning invariant: outstanding fetches can never pin every
  // frame (DESIGN.md §7).
  SystemConfig cfg = SystemConfig::Adios();
  ArrayApp::Options ao;
  ao.entries = 1 << 15;  // 513 pages, 20% local => ~102 frames.
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  const uint64_t local = sys.memory_manager().options().local_pages;
  for (auto& w : sys.workers()) {
    EXPECT_LE(static_cast<uint64_t>(w->mem_qp()->depth()) * cfg.num_workers, local);
  }
}

TEST(WorkerFlow, LargeCacheKeepsConfiguredQpDepth) {
  SystemConfig cfg = SystemConfig::Adios();
  ArrayApp::Options ao;
  ao.entries = 1 << 20;  // 16385 pages, 20% local => 3277 frames.
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  EXPECT_EQ(sys.workers()[0]->mem_qp()->depth(), cfg.fabric.qp_depth);
}

TEST(WorkerFlow, SharedFaultsCoalesceUnderContention) {
  // A hot working set barely larger than local memory forces concurrent
  // faults on the same page: they must coalesce onto one in-flight fetch.
  SystemConfig cfg = SystemConfig::Adios();
  cfg.local_memory_ratio = 0.05;
  ArrayApp::Options ao;
  ao.entries = 1 << 13;  // 512 KiB working set, ~6 local frames.
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(800000, Milliseconds(4), Milliseconds(12));
  EXPECT_EQ(r.sent, r.completed + r.dropped);
  EXPECT_GT(r.mem.shared_faults, 0u);
  // Coalesced faults never double-fetch: fetches <= faults.
  EXPECT_LE(r.mem.faults, static_cast<uint64_t>(r.completed) + r.mem.prefetches + 10);
}

TEST(WorkerFlow, HermitJitterOnlyInflatesTail) {
  // Jitter events are rare: P50 must stay near DiLOS-plus-kernel-costs
  // while P99.9 blows up (the 42x DiLOS-vs-Hermit gap of §5.1).
  ArrayApp::Options ao;
  ao.entries = 1 << 17;
  ArrayApp happ(ao);
  MdSystem hermit(SystemConfig::Hermit(), &happ);
  RunResult r = hermit.Run(300000, Milliseconds(5), Milliseconds(15));
  EXPECT_LT(r.e2e.P50(), 20000u);
  EXPECT_GT(r.e2e.P999(), 30000u);
}

TEST(WorkerFlow, YieldCountTracksFaultCount) {
  // Under Adios every demand fault yields exactly once (no spurious yields).
  ArrayApp::Options ao;
  ao.entries = 1 << 17;
  ArrayApp app(ao);
  MdSystem sys(SystemConfig::Adios(), &app);
  RunResult r = sys.Run(500000, Milliseconds(4), Milliseconds(10));
  EXPECT_GE(r.worker_yields, r.mem.faults);
  EXPECT_LE(r.worker_yields, r.mem.faults + r.mem.shared_faults + 16);
}

TEST(WorkerFlow, DispatcherQueueBoundedByConfig) {
  SystemConfig cfg = SystemConfig::DiLOS();
  ArrayApp::Options ao;
  ao.entries = 1 << 17;
  ArrayApp app(ao);
  MdSystem sys(cfg, &app);
  RunResult r = sys.Run(3.5e6, Milliseconds(5), Milliseconds(12));  // Overload.
  EXPECT_GT(r.dropped, 0u);
  EXPECT_LE(sys.dispatcher().stats().max_queue_depth,
            static_cast<uint64_t>(cfg.sched.central_queue_limit) + 2 * cfg.sched.cq_poll_batch);
}

}  // namespace
}  // namespace adios
