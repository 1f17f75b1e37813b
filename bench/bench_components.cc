// Component microbenchmarks (google-benchmark): the substrate operations on
// the request hot path. These measure real host performance of the library
// pieces, independent of the simulation.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "src/apps/array_app.h"
#include "src/base/histogram.h"
#include "src/core/md_system.h"
#include "src/base/rng.h"
#include "src/integrity/integrity.h"
#include "src/integrity/page_checksum.h"
#include "src/mem/memory_manager.h"
#include "src/rdma/fabric.h"
#include "src/rdma/fair_link.h"
#include "src/sim/cpu_core.h"
#include "src/sim/engine.h"
#include "src/unithread/context.h"
#include "src/unithread/universal_stack.h"

namespace adios {
namespace {

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Add(rng.NextBelow(1u << 20));
  }
}
BENCHMARK(BM_HistogramAdd);

void BM_HistogramPercentile(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    h.Add(rng.NextBelow(1u << 20));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Percentile(99.9));
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator z(1u << 20, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Next());
  }
}
BENCHMARK(BM_ZipfNext);

// Measures the bare asm switch (no wrapper branch); under ASan the raw
// symbol would break shadow-stack bookkeeping, so use the annotated wrapper.
#if defined(__SANITIZE_ADDRESS__)
inline void BenchCtxSwitch(UnithreadContext* from, UnithreadContext* to) {
  AdiosContextSwitch(from, to);
}
#else
inline void BenchCtxSwitch(UnithreadContext* from, UnithreadContext* to) {
  AdiosContextSwitchAsm(from, to);
}
#endif

void BM_ContextSwitchPair(benchmark::State& state) {
  struct Rig {
    UnithreadContext main_ctx;
    UnithreadContext thread_ctx;
    std::vector<std::byte> stack = std::vector<std::byte>(64 * 1024);
  } rig;
  rig.thread_ctx.Reset(
      rig.stack.data(), rig.stack.size(),
      [](void* arg) {
        auto* r = static_cast<Rig*>(arg);
        for (;;) {
          BenchCtxSwitch(&r->thread_ctx, &r->main_ctx);
        }
      },
      &rig, &rig.main_ctx);
  for (auto _ : state) {
    BenchCtxSwitch(&rig.main_ctx, &rig.thread_ctx);
  }
}
BENCHMARK(BM_ContextSwitchPair);

void BM_UnithreadPoolAcquireRelease(benchmark::State& state) {
  UnithreadPool::Options opts;
  opts.count = 1024;
  opts.buffer_size = 16384;
  opts.mtu = 1536;
  UnithreadPool pool(opts);
  for (auto _ : state) {
    UnithreadBuffer b = pool.Acquire();
    benchmark::DoNotOptimize(b.context());
    pool.Release(b);
  }
}
BENCHMARK(BM_UnithreadPoolAcquireRelease);

// Host set-up cost per layer: the default preset's unithread pool (8,192
// buffers reserved, one handed out), and a whole Adios system over a small
// array (pool, region, paging, fabric, workers) including its teardown.
void BM_UnithreadPoolBuild(benchmark::State& state) {
  const UnithreadPool::Options opts = SystemConfig::DefaultPool();
  for (auto _ : state) {
    UnithreadPool pool(opts);
    UnithreadBuffer b = pool.Acquire();
    benchmark::DoNotOptimize(b.context());
    pool.Release(b);
  }
}
BENCHMARK(BM_UnithreadPoolBuild)->Unit(benchmark::kMicrosecond);

void BM_MdSystemBuild(benchmark::State& state) {
  ArrayApp::Options ao;
  ao.entries = 1 << 15;
  for (auto _ : state) {
    ArrayApp app(ao);
    MdSystem sys(SystemConfig::Adios(), &app);
    benchmark::DoNotOptimize(&sys);
  }
}
BENCHMARK(BM_MdSystemBuild)->Unit(benchmark::kMicrosecond);

void BM_EngineScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Engine e;
    for (int i = 0; i < 1000; ++i) {
      e.Schedule(static_cast<SimDuration>(i), [] {});
    }
    state.ResumeTiming();
    e.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleDispatch);

// Host cost per layer of the event engine. Each item is one fiber Consume,
// one cancellable deadline, or one link item.
constexpr int kEngineBatch = 10000;

void BM_EngineConsumeInline(benchmark::State& state) {
  // Nothing else is queued, so every wake-up is the next event: the clock
  // advances inline, with no queue operation or context switch.
  for (auto _ : state) {
    state.PauseTiming();
    Engine e;
    CpuCore core(&e, CycleClock(2000), "core");
    e.SpawnFiber("consumer", [&core] {
      for (int i = 0; i < kEngineBatch; ++i) {
        core.Consume(100);
      }
    });
    state.ResumeTiming();
    e.Run();
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EngineConsumeInline);

// A timer due at the same instant as each of the fiber's wake-ups, queued
// earlier: every Consume takes the queued path (push, pop), and the blocked
// fiber runs the timer in place and then pops its own wake-up, so no
// context switch happens.
struct CompetingTimer {
  Engine* e;
  void operator()() const { e->Schedule(50, *this); }
};

void BM_EngineConsumeQueued(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Engine e;
    CpuCore core(&e, CycleClock(2000), "core");
    e.Schedule(50, CompetingTimer{&e});
    e.SpawnFiber("consumer", [&e, &core] {
      for (int i = 0; i < kEngineBatch; ++i) {
        core.Consume(100);  // 50 ns.
      }
      e.Stop();
    });
    state.ResumeTiming();
    e.Run();
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EngineConsumeQueued);

// Two fibers whose Consumes interleave: each wake-up queues behind the other
// fiber's, so every Consume is one push, one pop and one direct
// fiber-to-fiber switch (no round trip through the main context).
void BM_EngineFiberPingPong(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Engine e;
    CpuCore core_a(&e, CycleClock(2000), "a");
    CpuCore core_b(&e, CycleClock(2000), "b");
    e.SpawnFiber("a", [&core_a] {
      for (int i = 0; i < kEngineBatch / 2; ++i) {
        core_a.Consume(100);  // 50 ns.
      }
    });
    e.SpawnFiber("b", [&e, &core_b] {
      e.Wait(25);  // Half a period out of phase with "a".
      for (int i = 0; i < kEngineBatch / 2; ++i) {
        core_b.Consume(100);
      }
    });
    state.ResumeTiming();
    e.Run();
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EngineFiberPingPong);

void BM_EngineCancellableChurn(benchmark::State& state) {
  // Schedule a deadline and cancel it, as every settled fetch does; the run
  // at the end pops the stale entries.
  Engine e;
  uint64_t vpage = 0;
  for (auto _ : state) {
    for (int i = 0; i < kEngineBatch; ++i) {
      Engine::EventHandle h = e.ScheduleCancellable(1000, [&vpage, i] { vpage += i; });
      h.Cancel();
    }
    e.Run();
  }
  benchmark::DoNotOptimize(vpage);
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EngineCancellableChurn);

// Hold model, the classic event-queue benchmark: N events stay pending, and
// each one that fires schedules its successor, so every item is one pop and
// one push. The delays follow the workloads' pushes: a third within 32 ns,
// most within 1 us, a few up to 5 us. One in 25 items also arms a fetch-like
// deadline 20-60 us out and cancels the one armed 16 such items before,
// which may already have fired as a stale entry; cancelled deadlines stay
// queued until they come due, as they do in the simulator.
struct HoldState {
  Engine* e = nullptr;
  Rng rng{1};
  uint64_t fired = 0;
  uint64_t stop_at = 0;
  std::array<Engine::EventHandle, 16> deadlines;
  size_t next_deadline = 0;
};

struct HoldEvent {
  HoldState* s;
  void operator()() const {
    HoldState& h = *s;
    const uint64_t r = h.rng.NextBelow(100);
    SimDuration delay;
    if (r < 34) {
      delay = h.rng.NextBelow(32);
    } else if (r < 92) {
      delay = 32 + h.rng.NextBelow(1000 - 32);
    } else {
      delay = 1000 + h.rng.NextBelow(4000);
    }
    if (r % 25 == 0) {
      Engine::EventHandle& d = h.deadlines[h.next_deadline++ % h.deadlines.size()];
      d.Cancel();
      d = h.e->ScheduleCancellable(20000 + h.rng.NextBelow(40000), [] {});
    }
    h.e->Schedule(delay, *this);
    if (++h.fired == h.stop_at) {
      h.e->Stop();
    }
  }
};

void BM_EngineHold(benchmark::State& state) {
  Engine e;
  HoldState h;
  h.e = &e;
  for (int64_t i = 0; i < state.range(0); ++i) {
    e.Schedule(h.rng.NextBelow(1000), HoldEvent{&h});
  }
  h.stop_at = kEngineBatch;
  e.Run();  // Warm-up: the queue reaches its steady shape.
  for (auto _ : state) {
    h.stop_at = h.fired + kEngineBatch;
    e.Run();
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EngineHold)->Arg(16)->Arg(64);

void BM_FairLinkEnqueueServe(benchmark::State& state) {
  // A 48-byte completion closure, the size of a fabric hop's.
  Engine e;
  FairLink link(&e, "link", /*gbps=*/100.0, /*fixed_ns=*/20);
  const uint32_t flow = link.AddFlow();
  uint64_t delivered = 0;
  const std::array<uint64_t, 5> payload = {1, 2, 3, 4, 5};
  for (auto _ : state) {
    for (int i = 0; i < kEngineBatch; ++i) {
      link.Enqueue(flow, 4096, [&delivered, payload] { delivered += payload[0]; });
    }
    e.Run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_FairLinkEnqueueServe);

// One 4 KiB page digest, as integrity priming and a verified fetch of a page
// written since its last hash compute it.
void BM_PageChecksum4K(benchmark::State& state) {
  std::vector<uint8_t> page(4096);
  Rng rng(1);
  for (uint8_t& b : page) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PageChecksum(page.data(), page.size(), 41));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_PageChecksum4K);

// A verified fetch of a page unwritten since it was last hashed: the region
// digest comes from the write-generation memo, not the codec.
void BM_VerifyFetchChecksumMemo(benchmark::State& state) {
  constexpr uint64_t kPages = 64;
  RemoteRegion region(kPages * kPageSize);
  Rng rng(1);
  for (RemoteAddr addr = 0; addr < region.size(); addr += 8) {
    region.WriteObject<uint64_t>(addr, rng.Next());
  }
  IntegrityConfig cfg;
  cfg.verify = true;
  IntegrityLayer layer(cfg, &region, kPages, kPageSize, /*num_nodes=*/1, /*replicas=*/1);
  uint64_t vpage = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.VerifyFetch(/*wr_id=*/vpage, vpage, /*node=*/0));
    vpage = (vpage + 1) % kPages;
  }
  ADIOS_CHECK_EQ(layer.digests_computed(), kPages);  // Priming only.
}
BENCHMARK(BM_VerifyFetchChecksumMemo);

void BM_PageTableFaultCycle(benchmark::State& state) {
  Engine e;
  MemoryManager::Options o;
  o.total_pages = 1u << 16;
  o.local_pages = 1u << 14;
  MemoryManager mm(&e, o);
  uint64_t p = 0;
  for (auto _ : state) {
    mm.BeginFetch(p);
    mm.CompleteFetch(p);
    mm.EvictPage(p);
    p = (p + 1) % o.total_pages;
  }
}
BENCHMARK(BM_PageTableFaultCycle);

void BM_FabricReadPipeline(benchmark::State& state) {
  // Full simulated fetch pipeline cost (host time per simulated READ).
  for (auto _ : state) {
    state.PauseTiming();
    Engine e;
    RdmaFabric fabric(&e, FabricParams{});
    QueuePair* qp = fabric.CreateQp(fabric.CreateCq());
    state.ResumeTiming();
    for (int i = 0; i < 64; ++i) {
      qp->PostRead(4096, static_cast<uint64_t>(i));
    }
    e.Run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FabricReadPipeline);

}  // namespace
}  // namespace adios

BENCHMARK_MAIN();
