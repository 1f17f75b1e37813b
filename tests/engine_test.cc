// Discrete-event engine: ordering, determinism, the calendar queue's order
// against a (when, seq) priority queue, fiber suspension semantics,
// direct fiber-to-fiber handoff, cancellation slots, the inline time
// advance, InlineFn, and the allocation-free steady state (checked with a
// counting operator new).

#include "src/sim/engine.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/inline_fn.h"
#include "src/base/rng.h"
#include "src/rdma/fair_link.h"
#include "src/sim/cpu_core.h"
#include "src/sim/wait_queue.h"

// Every allocation in this binary goes through here, so a test can count the
// allocations a stretch of code makes. Single-threaded tests only. All
// unaligned forms are replaced together, so no block is freed by a different
// allocator than the one that made it (AddressSanitizer checks the pairing).
namespace {
uint64_t g_allocations = 0;

void* CountedAlloc(std::size_t n) noexcept {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
// GCC pairs operator new with its builtin delete when it inlines these and
// would flag the free() below as a mismatch; the pairs here are consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace adios {
namespace {

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> trace;
  e.Schedule(30, [&] { trace.push_back(3); });
  e.Schedule(10, [&] { trace.push_back(1); });
  e.Schedule(20, [&] { trace.push_back(2); });
  e.Run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> trace;
  for (int i = 0; i < 10; ++i) {
    e.Schedule(5, [&trace, i] { trace.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(trace[i], i);
  }
}

// Random times with many ties, events scheduled from inside events, and
// cancellations: the dispatch order must be (time, insertion order).
TEST(Engine, QueueOrderMatchesSortedReference) {
  Engine e;
  Rng rng(7);
  struct Fired {
    SimTime when;
    int id;
  };
  std::vector<Fired> fired;
  std::vector<std::pair<SimTime, int>> expected;  // Sorted later; ids rise.
  int next_id = 0;
  auto schedule = [&](SimDuration delay) {
    const int id = next_id++;
    expected.push_back({e.now() + delay, id});
    e.Schedule(delay, [&fired, &e, id] { fired.push_back({e.now(), id}); });
  };
  for (int i = 0; i < 2000; ++i) {
    schedule(rng.NextBelow(500));
    Engine::EventHandle h = e.ScheduleCancellable(rng.NextBelow(500), [] { FAIL(); });
    h.Cancel();
  }
  for (int round = 0; round < 4; ++round) {
    e.RunUntil(e.now() + 100);
    for (int i = 0; i < 500; ++i) {
      schedule(rng.NextBelow(300));
    }
  }
  e.Run();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(fired.size(), expected.size());
  for (size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i].when, expected[i].first) << i;
    ASSERT_EQ(fired[i].id, expected[i].second) << i;
  }
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine e;
  int fired = 0;
  e.Schedule(10, [&] { ++fired; });
  e.Schedule(100, [&] { ++fired; });
  e.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 50u);
  e.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, ScheduledEventsCanScheduleMore) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 5) {
      e.Schedule(10, chain);
    }
  };
  e.Schedule(10, chain);
  e.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 50u);
}

TEST(Engine, CancellableEventSkipsWhenCancelled) {
  Engine e;
  int fired = 0;
  auto h = e.ScheduleCancellable(10, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.Cancel();
  EXPECT_FALSE(h.pending());
  e.Run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, CancellableEventFiresWhenNotCancelled) {
  Engine e;
  int fired = 0;
  auto h = e.ScheduleCancellable(10, [&] { ++fired; });
  e.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
}

TEST(Engine, StopHaltsProcessing) {
  Engine e;
  int fired = 0;
  e.Schedule(10, [&] {
    ++fired;
    e.Stop();
  });
  e.Schedule(20, [&] { ++fired; });
  e.Run();
  EXPECT_EQ(fired, 1);
}

// A finite-horizon run cut short by Stop() must leave the clock at the stop
// time: moving it on to the horizon would let the next run pop the earlier
// event still queued with the clock going backwards.
TEST(Engine, StopInsideRunUntilLeavesClockAtStopTime) {
  Engine e;
  std::vector<SimTime> fired;
  e.Schedule(10, [&] {
    fired.push_back(e.now());
    e.Stop();
  });
  e.Schedule(20, [&] { fired.push_back(e.now()); });
  e.RunUntil(100);
  EXPECT_EQ(e.now(), 10u);
  e.Run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(e.now(), 20u);
}

TEST(Fiber, WaitAdvancesSimulatedTime) {
  Engine e;
  std::vector<SimTime> stamps;
  e.SpawnFiber("t", [&] {
    stamps.push_back(e.now());
    e.Wait(100);
    stamps.push_back(e.now());
    e.Wait(50);
    stamps.push_back(e.now());
  });
  e.Run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{0, 100, 150}));
}

TEST(Fiber, TwoFibersInterleaveByTime) {
  Engine e;
  std::vector<std::pair<char, SimTime>> trace;
  e.SpawnFiber("a", [&] {
    for (int i = 0; i < 3; ++i) {
      e.Wait(10);
      trace.push_back({'a', e.now()});
    }
  });
  e.SpawnFiber("b", [&] {
    for (int i = 0; i < 2; ++i) {
      e.Wait(15);
      trace.push_back({'b', e.now()});
    }
  });
  e.Run();
  // At t=30 both fire; b's resume was scheduled earlier (at t=15) than a's
  // (at t=20), so the deterministic tie-break runs b first.
  std::vector<std::pair<char, SimTime>> expected = {
      {'a', 10}, {'b', 15}, {'a', 20}, {'b', 30}, {'a', 30}};
  EXPECT_EQ(trace, expected);
}

TEST(Fiber, SuspendAndResumeLater) {
  Engine e;
  std::vector<int> trace;
  UnithreadContext* suspended = nullptr;
  e.SpawnFiber("sleeper", [&] {
    trace.push_back(1);
    suspended = e.current_context();
    e.SuspendCurrent();
    trace.push_back(3);
  });
  e.Schedule(100, [&] {
    trace.push_back(2);
    e.ResumeLater(suspended, 5);
  });
  e.Run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 105u);
}

TEST(WaitQueueTest, FifoWakeOrder) {
  Engine e;
  WaitQueue wq(&e);
  std::vector<int> woke;
  for (int i = 0; i < 3; ++i) {
    e.SpawnFiber("w" + std::to_string(i), [&, i] {
      wq.Wait();
      woke.push_back(i);
    });
  }
  e.Schedule(10, [&] { wq.NotifyOne(); });
  e.Schedule(20, [&] { wq.NotifyAll(); });
  e.Run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
}

TEST(WaitQueueTest, NotifyDelayModelsWakeupCost) {
  Engine e;
  WaitQueue wq(&e);
  SimTime woke_at = 0;
  e.SpawnFiber("w", [&] {
    wq.Wait();
    woke_at = e.now();
  });
  e.Schedule(100, [&] { wq.NotifyOne(/*wake_delay=*/5000); });
  e.Run();
  EXPECT_EQ(woke_at, 5100u);
}

TEST(WaitQueueTest, NotifyOnEmptyReturnsFalse) {
  Engine e;
  WaitQueue wq(&e);
  EXPECT_FALSE(wq.NotifyOne());
}

TEST(CpuCoreTest, ConsumeChargesTimeAndBusy) {
  Engine e;
  CpuCore core(&e, CycleClock(2000), "c");
  e.SpawnFiber("t", [&] {
    core.Consume(2000);  // 1 us at 2 GHz.
    EXPECT_EQ(e.now(), 1000u);
    e.Wait(1000);  // Idle time.
    core.Consume(4000);
  });
  e.Run();
  EXPECT_EQ(core.busy_ns(), 3000u);
  EXPECT_EQ(e.now(), 4000u);
}

TEST(CpuCoreTest, UtilizationWindow) {
  Engine e;
  CpuCore core(&e, CycleClock(2000), "c");
  e.SpawnFiber("t", [&] {
    core.Consume(2000);
    core.MarkWindow();
    const SimTime start = e.now();
    core.Consume(2000);
    e.Wait(1000);
    EXPECT_NEAR(core.Utilization(start), 0.5, 1e-9);
  });
  e.Run();
}

TEST(CpuCoreTest, BusyWaitUntilAccounted) {
  Engine e;
  CpuCore core(&e, CycleClock(2000), "c");
  e.SpawnFiber("t", [&] { core.BusyWaitUntil(500); });
  e.Run();
  EXPECT_EQ(core.busy_wait_ns(), 500u);
  EXPECT_EQ(core.busy_ns(), 500u);
}

// The critical nesting used by the MD scheduler: a fiber switches into a
// nested unithread; the unithread Wait()s on the engine; the engine resumes
// it; it finishes back into the fiber.
TEST(Fiber, NestedUnithreadCanWaitOnEngine) {
  Engine e;
  std::vector<std::pair<int, SimTime>> trace;
  std::vector<std::byte> stack(32 * 1024);
  UnithreadContext nested;

  struct Ctx {
    Engine* e;
    std::vector<std::pair<int, SimTime>>* trace;
  } ctx{&e, &trace};

  e.SpawnFiber("host", [&] {
    trace.push_back({1, e.now()});
    nested.Reset(
        stack.data(), stack.size(),
        [](void* arg) {
          auto* c = static_cast<Ctx*>(arg);
          c->trace->push_back({2, c->e->now()});
          c->e->Wait(100);
          c->trace->push_back({3, c->e->now()});
        },
        &ctx, e.current_context());
    e.RawSwitch(e.current_context(), &nested);
    trace.push_back({4, e.now()});
  });
  e.Run();
  std::vector<std::pair<int, SimTime>> expected = {{1, 0}, {2, 0}, {3, 100}, {4, 100}};
  EXPECT_EQ(trace, expected);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [] {
    Engine e;
    uint64_t hash = 0;
    WaitQueue wq(&e);
    for (int i = 0; i < 4; ++i) {
      e.SpawnFiber("f", [&e, &hash, i] {
        for (int k = 0; k < 10; ++k) {
          e.Wait(static_cast<SimDuration>(7 * i + k + 1));
          hash = hash * 31 + e.now() + static_cast<uint64_t>(i);
        }
      });
    }
    e.Run();
    return hash;
  };
  EXPECT_EQ(run(), run());
}

// --- Inline time advance: where it must not apply ---

TEST(InlineAdvance, QueuedEventAtSameTimeRunsFirst) {
  Engine e;
  std::vector<std::string> trace;
  e.SpawnFiber("f", [&] {
    e.Schedule(10, [&] { trace.push_back("cb@" + std::to_string(e.now())); });
    e.Wait(10);  // The callback is queued at the wake time with a smaller seq.
    trace.push_back("f@" + std::to_string(e.now()));
  });
  e.Run();
  EXPECT_EQ(trace, (std::vector<std::string>{"cb@10", "f@10"}));
}

TEST(InlineAdvance, WakePastHorizonStaysQueued) {
  Engine e;
  std::vector<SimTime> stamps;
  e.SpawnFiber("f", [&] {
    e.Wait(100);
    stamps.push_back(e.now());
  });
  e.RunUntil(50);
  EXPECT_TRUE(stamps.empty());
  EXPECT_EQ(e.now(), 50u);
  EXPECT_EQ(e.events_processed(), 1u);  // The spawn only.
  e.RunUntil(100);  // A wake exactly at the horizon is processed.
  EXPECT_EQ(stamps, (std::vector<SimTime>{100}));
  EXPECT_EQ(e.events_processed(), 2u);
}

TEST(InlineAdvance, NotAfterStop) {
  Engine e;
  std::vector<SimTime> stamps;
  e.SpawnFiber("f", [&] {
    e.Stop();
    e.Wait(5);  // Queue empty, but the run was stopped: must suspend.
    stamps.push_back(e.now());
  });
  e.Run();
  EXPECT_TRUE(stamps.empty());
  EXPECT_EQ(e.now(), 0u);
  e.Run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{5}));
}

// A mixed fiber/callback schedule against a hand-computed trace. Events:
// spawn(0), A(5), f-wake(10), inline(11), B(12), f-wake(12), inline(12) = 7.
TEST(InlineAdvance, MixedScheduleMatchesHandTrace) {
  Engine e;
  std::vector<std::string> trace;
  auto mark = [&](const char* who) { trace.push_back(who + std::to_string(e.now())); };
  e.Schedule(5, [&] {
    mark("A@");
    e.Schedule(7, [&] { mark("B@"); });
  });
  e.SpawnFiber("f", [&] {
    mark("f@");
    e.Wait(10);  // A at 5 is earlier: queued.
    mark("f@");
    e.Wait(1);  // B at 12 is strictly later: inline.
    mark("f@");
    e.Wait(1);  // B at 12 ties the wake: queued, B first.
    mark("f@");
    e.Wait(0);  // Queue empty: inline.
    mark("f@");
  });
  e.Run();
  EXPECT_EQ(trace, (std::vector<std::string>{"f@0", "A@5", "f@10", "f@11", "B@12", "f@12",
                                             "f@12"}));
  EXPECT_EQ(e.events_processed(), 7u);
  EXPECT_EQ(e.now(), 12u);
}

// --- Direct handoff ---

// Records every context switch as "from>to" using the names given to Name().
class SwitchLog {
 public:
  SwitchLog() { SetContextSwitchObserver(&SwitchLog::Observe, this); }
  ~SwitchLog() { SetContextSwitchObserver(nullptr, nullptr); }
  SwitchLog(const SwitchLog&) = delete;
  SwitchLog& operator=(const SwitchLog&) = delete;

  void Name(const UnithreadContext* ctx, std::string name) {
    names_.push_back({ctx, std::move(name)});
  }
  const std::vector<std::string>& switches() const { return switches_; }

 private:
  static void Observe(void* user, UnithreadContext* from, UnithreadContext* to, bool) {
    auto* self = static_cast<SwitchLog*>(user);
    self->switches_.push_back(self->NameOf(from) + ">" + self->NameOf(to));
  }
  std::string NameOf(const UnithreadContext* ctx) const {
    for (const auto& [c, name] : names_) {
      if (c == ctx) {
        return name;
      }
    }
    return "?";
  }

  std::vector<std::pair<const UnithreadContext*, std::string>> names_;
  std::vector<std::string> switches_;
};

bool OnStack(const UnithreadContext* ctx, const void* addr) {
  const auto* low = static_cast<const std::byte*>(ctx->stack_low);
  const auto* p = static_cast<const std::byte*>(addr);
  return p >= low && p < low + ctx->stack_size;
}

// Fibers A, B and H, a nested unithread U entered from H, and a callback C,
// against a hand-computed trace. Every blocking context dispatches for
// itself: A hands off straight to B, B to H, U to B and back, U to A; A runs
// C in place on its own stack; only finished fibers return to main.
//   t=0:  A waits to 10 (B@0 queued first) -> A>B. B waits to 5 -> B>H.
//         H enters U. U waits to 7; U cannot host callbacks, but B@5 is a
//         wake-up -> U>B.
//   t=5:  B waits to 15 -> B>U.   t=7: U waits to 14 -> U>A.
//   t=10: A waits to 20; C@12 runs in place on A; then U@14 -> A>U.
//   t=14: U finishes into H; H finishes into main.
//   t=15: B finishes.   t=20: A finishes.
TEST(Handoff, MixedScheduleMatchesHandTrace) {
  Engine e;
  SwitchLog log;
  std::vector<std::string> trace;
  auto mark = [&](const char* who) { trace.push_back(who + std::to_string(e.now())); };
  const UnithreadContext* callback_ctx = nullptr;
  e.Schedule(12, [&] {
    mark("C@");
    callback_ctx = e.current_context();
  });
  Fiber* a = e.SpawnFiber("a", [&] {
    mark("A@");
    e.Wait(10);
    mark("A@");
    e.Wait(10);
    mark("A@");
  });
  Fiber* b = e.SpawnFiber("b", [&] {
    mark("B@");
    e.Wait(5);
    mark("B@");
    e.Wait(10);
    mark("B@");
  });
  std::vector<std::byte> stack(32 * 1024);
  UnithreadContext u;
  struct UArgs {
    Engine* e;
    std::function<void(const char*)> mark;
  } u_args{&e, mark};
  Fiber* h = e.SpawnFiber("h", [&] {
    mark("H@");
    u.Reset(
        stack.data(), stack.size(),
        [](void* arg) {
          auto* args = static_cast<UArgs*>(arg);
          args->mark("U@");
          args->e->Wait(7);
          args->mark("U@");
          args->e->Wait(7);
          args->mark("U@");
        },
        &u_args, e.current_context());
    e.RawSwitch(e.current_context(), &u);
    mark("H@");
  });
  log.Name(e.main_context(), "main");
  log.Name(a->ctx(), "A");
  log.Name(b->ctx(), "B");
  log.Name(h->ctx(), "H");
  log.Name(&u, "U");
  e.Run();
  EXPECT_EQ(trace, (std::vector<std::string>{"A@0", "B@0", "H@0", "U@0", "B@5", "U@7", "A@10",
                                             "C@12", "U@14", "H@14", "B@15", "A@20"}));
  EXPECT_EQ(log.switches(),
            (std::vector<std::string>{"main>A", "A>B", "B>H", "H>U", "U>B", "B>U", "U>A", "A>U",
                                      "U>H", "H>main", "main>B", "B>main", "main>A", "A>main"}));
  EXPECT_EQ(callback_ctx, a->ctx());  // C ran in place on the blocked fiber A.
  // Spawns (3), B@5, U@7, A@10, C@12, U@14, B@15, A@20. U's entry is H's
  // own switch, not an event.
  EXPECT_EQ(e.events_processed(), 10u);
  EXPECT_EQ(e.now(), 20u);
}

// A fiber that runs a same-time callback in place and then finds its own
// wake-up next keeps running: no switch at all.
TEST(Handoff, OwnWakeUpAfterInPlaceCallbackDoesNotSwitch) {
  Engine e;
  SwitchLog log;
  std::vector<std::string> trace;
  Fiber* f = e.SpawnFiber("f", [&] {
    e.Schedule(10, [&] { trace.push_back("cb@" + std::to_string(e.now())); });
    e.Wait(10);  // The callback ties the wake-up with a smaller seq.
    trace.push_back("f@" + std::to_string(e.now()));
  });
  log.Name(e.main_context(), "main");
  log.Name(f->ctx(), "F");
  e.Run();
  EXPECT_EQ(trace, (std::vector<std::string>{"cb@10", "f@10"}));
  EXPECT_EQ(log.switches(), (std::vector<std::string>{"main>F", "F>main"}));
  EXPECT_EQ(e.events_processed(), 3u);
}

// A ticking callback races a fiber and a nested unithread that both block
// often. Callbacks run in place on the fiber's stack or on main, never on
// the unithread's small pool-style stack.
TEST(Handoff, CallbacksNeverRunOnUnithreadStack) {
  Engine e;
  std::vector<std::byte> stack(32 * 1024);
  UnithreadContext u;
  Fiber* f = e.SpawnFiber("f", [&] {
    for (int i = 0; i < 200; ++i) {
      e.Wait(5);
    }
  });
  e.SpawnFiber("h", [&] {
    u.Reset(
        stack.data(), stack.size(),
        [](void* arg) {
          auto* engine = static_cast<Engine*>(arg);
          for (int i = 0; i < 300; ++i) {
            engine->Wait(3);
          }
        },
        &e, e.current_context());
    e.RawSwitch(e.current_context(), &u);
  });
  int on_fiber = 0;
  int on_main = 0;
  int on_unithread = 0;
  std::function<void()> tick = [&] {
    // The frame address, not a local's: AddressSanitizer may move locals to
    // a heap-allocated fake stack.
    const void* frame = __builtin_frame_address(0);
    if (OnStack(&u, frame) || e.current_context() == &u) {
      ++on_unithread;
    } else if (e.current_context() == f->ctx()) {
      EXPECT_TRUE(OnStack(f->ctx(), frame));
      ++on_fiber;
    } else {
      EXPECT_TRUE(e.on_main());
      ++on_main;
    }
    if (e.now() < 1000) {
      e.Schedule(2, tick);
    }
  };
  e.Schedule(1, tick);
  e.Run();
  EXPECT_EQ(on_unithread, 0);
  EXPECT_GT(on_fiber, 0);
  EXPECT_GT(on_main, 0);  // While U blocks with a callback next.
  EXPECT_EQ(on_fiber + on_main, 501);  // t = 1, 3, ..., 1001.
}

// Two fibers that hand off to each other: the RunUntil horizon and Stop()
// both still return control to the main context, mid-ping-pong.
TEST(Handoff, HorizonAndStopReturnToMain) {
  Engine e;
  std::vector<std::string> trace;
  for (const char* name : {"a", "b"}) {
    e.SpawnFiber(name, [&e, &trace, name] {
      for (int i = 0; i < 10; ++i) {
        e.Wait(10);
        trace.push_back(name + std::to_string(e.now()));
      }
    });
  }
  e.RunUntil(25);
  EXPECT_EQ(e.now(), 25u);
  EXPECT_EQ(trace, (std::vector<std::string>{"a10", "b10", "a20", "b20"}));
  e.Schedule(20, [&] { e.Stop(); });  // At 45, after both wake-ups at 40.
  e.Run();
  EXPECT_EQ(e.now(), 45u);
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.back(), "b40");
  e.Run();
  EXPECT_EQ(e.now(), 100u);
  EXPECT_EQ(trace.size(), 20u);
}

TEST(HandoffDeathTest, CallbackThatWaitsDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A callback on the main context.
  EXPECT_DEATH(
      {
        Engine e;
        e.Schedule(5, [&e] { e.Wait(1); });
        e.Run();
      },
      "ADIOS_CHECK failed");
  // A callback running in place on a blocked fiber's stack.
  EXPECT_DEATH(
      {
        Engine e;
        e.SpawnFiber("f", [&e] {
          e.Schedule(5, [&e] { e.Wait(1); });
          e.Wait(10);
        });
        e.Run();
      },
      "ADIOS_CHECK failed");
  EXPECT_DEATH(
      {
        Engine e;
        e.SpawnFiber("f", [&e] {
          e.Schedule(5, [&e] { e.SuspendCurrent(); });
          e.Wait(10);
        });
        e.Run();
      },
      "ADIOS_CHECK failed");
}

// --- Cancellation slots ---

TEST(EventHandleTest, PendingFollowsCancelAndFire) {
  Engine e;
  Engine::EventHandle none;
  EXPECT_FALSE(none.pending());
  none.Cancel();  // No-op on an empty handle.
  auto fires = e.ScheduleCancellable(10, [] {});
  auto cancelled = e.ScheduleCancellable(20, [] {});
  const Engine::EventHandle copy = cancelled;
  EXPECT_TRUE(fires.pending());
  EXPECT_TRUE(copy.pending());
  cancelled.Cancel();
  EXPECT_FALSE(cancelled.pending());
  EXPECT_FALSE(copy.pending());  // Copies name the same event.
  e.RunUntil(15);
  EXPECT_FALSE(fires.pending());
  e.Run();
  EXPECT_EQ(e.events_processed(), 1u);  // Cancelled events are not counted.
  EXPECT_EQ(e.now(), 20u);  // A cancelled entry still moves the clock when popped.
}

TEST(EventHandleTest, CancelAfterFireIsNoOp) {
  Engine e;
  int fired = 0;
  auto h = e.ScheduleCancellable(10, [&] { ++fired; });
  e.Run();
  EXPECT_EQ(fired, 1);
  h.Cancel();
  h.Cancel();
  EXPECT_FALSE(h.pending());
  // The freed slot is reused by the next event; the stale handle must not
  // reach it.
  auto next = e.ScheduleCancellable(10, [&] { fired += 10; });
  h.Cancel();
  EXPECT_TRUE(next.pending());
  e.Run();
  EXPECT_EQ(fired, 11);
}

TEST(EventHandleTest, StaleHandleAfterCancelDoesNotCancelReuse) {
  Engine e;
  int fired = 0;
  auto old = e.ScheduleCancellable(10, [&] { fired += 1; });
  old.Cancel();
  auto reused = e.ScheduleCancellable(10, [&] { fired += 2; });
  old.Cancel();
  EXPECT_FALSE(old.pending());
  EXPECT_TRUE(reused.pending());
  e.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventHandleTest, CancelInsideOwnCallbackIsNoOp) {
  Engine e;
  Engine::EventHandle h;
  bool pending_inside = true;
  h = e.ScheduleCancellable(5, [&] {
    pending_inside = h.pending();
    h.Cancel();
  });
  e.Run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(e.events_processed(), 1u);
}

// --- InlineFn ---

struct Counted {
  static inline int live = 0;
  static inline int destroyed = 0;
  Counted() { ++live; }
  Counted(const Counted&) { ++live; }
  Counted(Counted&&) noexcept { ++live; }
  ~Counted() {
    --live;
    ++destroyed;
  }
};

TEST(InlineFnTest, SmallClosureStoredInlineWithoutAllocation) {
  int calls = 0;
  std::array<uint64_t, 6> pad{};  // 48 bytes + a pointer = 56: the limit.
  auto fn = [&calls, pad] { calls += 1 + static_cast<int>(pad[0]); };
  static_assert(InlineFn::kStoredInline<decltype(fn)>);
  const uint64_t before = g_allocations;
  InlineFn f(fn);
  InlineFn g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));
  g();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(g_allocations - before, 0u);
}

TEST(InlineFnTest, LargeClosureFallsBackToOneAllocation) {
  int calls = 0;
  std::array<uint64_t, 8> pad{};  // 64 bytes: above the inline buffer.
  pad[7] = 2;
  auto fn = [&calls, pad] { calls += static_cast<int>(pad[7]); };
  static_assert(!InlineFn::kStoredInline<decltype(fn)>);
  const uint64_t before = g_allocations;
  InlineFn f(fn);
  InlineFn g;
  g = std::move(f);  // Moves the pointer, not the closure.
  g();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(g_allocations - before, 1u);
}

TEST(InlineFnTest, MoveOnlyCaptures) {
  auto p = std::make_unique<int>(41);
  int seen = 0;
  InlineFn f([&seen, p = std::move(p)] { seen = ++*p; });
  InlineFn g(std::move(f));
  g();
  EXPECT_EQ(seen, 42);
}

TEST(InlineFnTest, DestroysEachCaptureExactlyOnce) {
  Counted::live = 0;
  Counted::destroyed = 0;
  {
    Counted c;
    InlineFn small([c] {});
    std::array<uint64_t, 8> pad{};
    InlineFn big([c, pad] {});
    InlineFn moved_small(std::move(small));
    InlineFn moved_big(std::move(big));
    moved_small();
    moved_big();
    InlineFn reassigned([c] {});
    reassigned = std::move(moved_small);  // Destroys the overwritten capture.
    EXPECT_EQ(Counted::live, 3);  // c, one small closure, one big closure.
    moved_big.Reset();
    EXPECT_EQ(Counted::live, 2);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(InlineFnTest, EngineDestroysUnfiredAndCancelledCallbacks) {
  Counted::live = 0;
  {
    Engine e;
    Counted c;
    e.Schedule(10, [c] {});
    auto h = e.ScheduleCancellable(10, [c] {});
    EXPECT_EQ(Counted::live, 3);
    h.Cancel();  // The capture is released at once, not when the entry pops.
    EXPECT_EQ(Counted::live, 2);
  }
  EXPECT_EQ(Counted::live, 0);
}

// --- Calendar queue: the same order as a (when, seq) priority queue ---

constexpr SimDuration kBucket = Engine::kBucketNs;
constexpr SimDuration kWheel = Engine::kWheelNs;

// Delays that probe the queue's edges: ties, bucket and wheel boundaries,
// and far beyond the wheel.
SimDuration EdgeDelay(Rng& rng) {
  switch (rng.NextBelow(12)) {
    case 0:
      return 0;
    case 1:
      return kBucket - 1;
    case 2:
      return kBucket;
    case 3:
      return kWheel - 1;
    case 4:
      return kWheel;
    case 5:
      return kWheel + 1 + rng.NextBelow(4 * kWheel);
    case 6:
      return 20 * kWheel + rng.NextBelow(kWheel);
    case 7:
    case 8:
      return rng.NextBelow(4 * kBucket);
    default:
      return rng.NextBelow(2000);
  }
}

// One step of an actor (a self-rescheduling callback chain or a fiber):
// side events to schedule, whether to cancel its oldest cancellable side
// event, and the delay to its next step. A pure function of (seed, actor,
// step), so the engine and the reference get the same plan as long as they
// run the steps in the same order.
struct StepPlan {
  std::vector<std::pair<SimDuration, bool>> sides;  // {delay, cancellable}.
  bool cancel_oldest = false;
  SimDuration next = 0;
};

StepPlan PlanStep(uint64_t seed, uint64_t actor, uint64_t step) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + actor * 1000003 + step);
  StepPlan p;
  p.next = EdgeDelay(rng);
  const uint64_t sides = rng.NextBelow(3);
  for (uint64_t k = 0; k < sides; ++k) {
    // A third of the side events tie exactly with the actor's next step.
    const SimDuration d = rng.NextBelow(3) == 0 ? p.next : EdgeDelay(rng);
    p.sides.push_back({d, rng.NextBelow(2) == 0});
  }
  p.cancel_oldest = rng.NextBelow(3) == 0;
  return p;
}

// Event labels: an actor's step is (actor, step, 0), its k-th side event
// (actor, step, k + 1). Side events whose label is a multiple of 5 call
// Stop() while stops are on.
uint64_t Label(uint64_t actor, uint64_t step, uint64_t k) {
  return actor << 40 | step << 8 | k;
}
bool IsStep(uint64_t label) { return (label & 0xff) == 0; }
bool IsStop(uint64_t label) { return !IsStep(label) && label % 5 == 0; }

struct Fired {
  uint64_t label;
  SimTime now;
  bool operator==(const Fired&) const = default;
};

struct WorldShape {
  uint64_t seed;
  uint64_t chains;
  uint64_t fibers;  // Actors chains .. chains + fibers - 1.
  uint64_t steps;   // Per actor.
};

// The specification: one seq per push, pop in (when, seq) order, cancelled
// entries skipped but still moving the clock, RunUntil leaving later entries
// queued and moving the clock to its horizon.
class ReferenceWorld {
 public:
  explicit ReferenceWorld(const WorldShape& shape) : shape_(shape) {
    for (uint64_t a = 0; a < shape.chains + shape.fibers; ++a) {
      Push(0, Label(a, 0, 0));
    }
  }

  void Push(SimTime when, uint64_t label) { queue_.push({when, seq_++, label}); }

  // Runs entries due at or before `until`; with `stops`, also returns after
  // a stop event.
  void RunUntil(SimTime until, bool stops) {
    while (!queue_.empty() && queue_.top().when <= until) {
      const Entry ev = queue_.top();
      queue_.pop();
      now_ = ev.when;
      if (cancelled_.count(ev.label) != 0) {
        continue;
      }
      fired_.push_back({ev.label, now_});
      if (IsStep(ev.label)) {
        RunStep(ev.label >> 40, (ev.label >> 8) & 0xffffffff);
      } else if (stops && IsStop(ev.label)) {
        return;
      }
    }
    if (until != ~0ull && now_ < until) {
      now_ = until;
    }
  }

  SimTime now() const { return now_; }
  bool empty() const { return queue_.empty(); }
  const std::vector<Fired>& fired() const { return fired_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    uint64_t label;
    bool operator>(const Entry& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  void RunStep(uint64_t actor, uint64_t step) {
    const StepPlan plan = PlanStep(shape_.seed, actor, step);
    for (size_t k = 0; k < plan.sides.size(); ++k) {
      const uint64_t label = Label(actor, step, k + 1);
      Push(now_ + plan.sides[k].first, label);
      if (plan.sides[k].second) {
        pending_[actor].push_back(label);
      }
    }
    if (plan.cancel_oldest && !pending_[actor].empty()) {
      cancelled_.insert(pending_[actor].front());
      pending_[actor].pop_front();
    }
    if (step + 1 < shape_.steps) {
      Push(now_ + plan.next, Label(actor, step + 1, 0));
    }
  }

  WorldShape shape_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  uint64_t seq_ = 0;
  SimTime now_ = 0;
  std::set<uint64_t> cancelled_;
  std::map<uint64_t, std::deque<uint64_t>> pending_;
  std::vector<Fired> fired_;
};

// The same actors on the engine: chains as self-rescheduling callbacks,
// fibers as loops of Wait (which advances inline whenever its wake-up is
// the next event), side events as plain or cancellable callbacks.
class EngineWorld {
 public:
  EngineWorld(Engine* e, const WorldShape& shape) : e_(e), shape_(shape) {
    for (uint64_t a = 0; a < shape.chains; ++a) {
      e_->Schedule(0, [this, a] { ChainStep(a, 0); });
    }
    for (uint64_t a = shape.chains; a < shape.chains + shape.fibers; ++a) {
      e_->SpawnFiber("actor", [this, a] {
        for (uint64_t step = 0; step < shape_.steps; ++step) {
          const SimDuration next = Step(a, step);
          if (step + 1 < shape_.steps) {
            e_->Wait(next);
          }
        }
      });
    }
  }

  void Side(SimDuration delay, uint64_t label) {
    e_->Schedule(delay, [this, label] { FireSide(label); });
  }

  bool stops = false;
  const std::vector<Fired>& fired() const { return fired_; }

 private:
  void ChainStep(uint64_t actor, uint64_t step) {
    const SimDuration next = Step(actor, step);
    if (step + 1 < shape_.steps) {
      e_->Schedule(next, [this, actor, step] { ChainStep(actor, step + 1); });
    }
  }

  // Records the step, schedules its side events and cancellation, and
  // returns the delay to the next step.
  SimDuration Step(uint64_t actor, uint64_t step) {
    fired_.push_back({Label(actor, step, 0), e_->now()});
    const StepPlan plan = PlanStep(shape_.seed, actor, step);
    for (size_t k = 0; k < plan.sides.size(); ++k) {
      const uint64_t label = Label(actor, step, k + 1);
      if (plan.sides[k].second) {
        pending_[actor].push_back(
            e_->ScheduleCancellable(plan.sides[k].first, [this, label] { FireSide(label); }));
      } else {
        Side(plan.sides[k].first, label);
      }
    }
    if (plan.cancel_oldest && !pending_[actor].empty()) {
      pending_[actor].front().Cancel();
      pending_[actor].pop_front();
    }
    return plan.next;
  }

  void FireSide(uint64_t label) {
    fired_.push_back({label, e_->now()});
    if (stops && IsStop(label)) {
      e_->Stop();
    }
  }

  Engine* e_;
  WorldShape shape_;
  std::map<uint64_t, std::deque<Engine::EventHandle>> pending_;
  std::vector<Fired> fired_;
};

// Randomized chains, fibers, ties, edge delays and cancellations, first in
// RunUntil slices whose horizons land mid-bucket (with events scheduled from
// outside between slices), then in Run() calls cut short by Stop() events.
// Every event, its time, the clock after each call and the event count must
// match the reference exactly; the run spans hundreds of wheel turns.
TEST(CalendarQueue, RandomScheduleMatchesReference) {
  constexpr uint64_t kExternal = 1000;
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const WorldShape shape{seed, /*chains=*/12, /*fibers=*/6, /*steps=*/300};
    Engine e;
    EngineWorld world(&e, shape);
    ReferenceWorld ref(shape);
    Rng rng(seed);
    SimTime horizon = 0;
    for (uint64_t slice = 0; slice < 200; ++slice) {
      horizon = ((horizon + rng.NextBelow(3 * kWheel)) & ~(kBucket - 1)) + kBucket / 2 + 1;
      e.RunUntil(horizon);
      ref.RunUntil(horizon, /*stops=*/false);
      ASSERT_EQ(e.now(), ref.now()) << "slice " << slice;
      ASSERT_EQ(world.fired().size(), ref.fired().size()) << "slice " << slice;
      const SimDuration delay = EdgeDelay(rng);
      world.Side(delay, Label(kExternal, slice, 1));
      ref.Push(ref.now() + delay, Label(kExternal, slice, 1));
    }
    world.stops = true;
    uint64_t runs = 0;
    while (!ref.empty()) {
      e.Run();
      ref.RunUntil(~0ull, /*stops=*/true);
      ASSERT_EQ(e.now(), ref.now()) << "run " << runs;
      ASSERT_EQ(world.fired().size(), ref.fired().size()) << "run " << runs;
      ++runs;
    }
    e.Run();  // The engine's queue is empty too: nothing more fires.
    EXPECT_GT(runs, 10u);
    EXPECT_GT(e.now(), 200 * kWheel);
    ASSERT_EQ(world.fired().size(), ref.fired().size());
    for (size_t i = 0; i < ref.fired().size(); ++i) {
      ASSERT_EQ(world.fired()[i], ref.fired()[i]) << "event " << i;
    }
    EXPECT_EQ(e.events_processed(), ref.fired().size());
  }
}

// From a mid-bucket instant, one event at each edge delay, scheduled in
// scrambled order and twice each: the pops come out in (time, insertion)
// order with the clock at each event's time.
TEST(CalendarQueue, EdgeDelaysPopInTimeThenInsertionOrder) {
  Engine e;
  e.RunUntil(kBucket * 1000 + 7);
  const std::vector<SimDuration> delays = {kWheel,     0,           100 * kWheel, kBucket - 1,
                                           kWheel - 1, kBucket,     kWheel + 1,   3 * kWheel,
                                           1,          kBucket + 1, 2 * kWheel - 1};
  std::vector<std::pair<SimTime, int>> expected;
  std::vector<std::pair<SimTime, int>> fired;
  int id = 0;
  for (int round = 0; round < 2; ++round) {
    for (SimDuration d : delays) {
      expected.push_back({e.now() + d, id});
      e.Schedule(d, [&fired, &e, id] { fired.push_back({e.now(), id}); });
      ++id;
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  e.Run();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(e.now(), kBucket * 1000 + 7 + 100 * kWheel);
}

// Wait's inline advance compares exact times, not buckets: with the
// earliest entry in the wake-up's own bucket, a wake-up before it advances
// inline (no switch), and one at or after it queues behind it.
TEST(CalendarQueue, InlineAdvanceWithEarliestEntryInSameBucket) {
  Engine e;
  SwitchLog log;
  std::vector<std::string> trace;
  auto mark = [&](const char* who) { trace.push_back(who + std::to_string(e.now())); };
  size_t switches_before_wait = 0;
  Fiber* f = e.SpawnFiber("f", [&] {
    // Bucket [64, 96): a callback at 80.
    e.Schedule(80, [&] { mark("A@"); });
    e.Wait(70);  // Earlier in A's bucket: inline.
    mark("f@");
    switches_before_wait = log.switches().size();
    e.Wait(9);  // 79: still inline.
    mark("f@");
    EXPECT_EQ(log.switches().size(), switches_before_wait);
    e.Wait(1);  // 80 ties A, which was pushed first: queued behind it.
    mark("f@");
    e.Schedule(15, [&] { mark("B@"); });  // 95, the bucket's last ns.
    e.Wait(14);  // 94: inline.
    mark("f@");
    e.Wait(2);  // 96: the next bucket, after B at 95.
    mark("f@");
  });
  log.Name(e.main_context(), "main");
  log.Name(f->ctx(), "f");
  e.Run();
  EXPECT_EQ(trace, (std::vector<std::string>{"f@70", "f@79", "A@80", "f@80", "f@94", "B@95",
                                             "f@96"}));
  // The two queued wake-ups ran their callback in place and resumed without
  // a switch; only the spawn and the finish switch.
  EXPECT_EQ(log.switches(), (std::vector<std::string>{"main>f", "f>main"}));
  // Spawn, 70, 79, A, 80, 94, B, 96.
  EXPECT_EQ(e.events_processed(), 8u);
  EXPECT_EQ(e.now(), 96u);
}

// --- Allocation-free steady state ---

// A self-rescheduling timer that competes with the fiber's wake-ups.
struct Ticker {
  Engine* e;
  uint64_t* ticks;
  void operator()() const {
    ++*ticks;
    e->Schedule(25, *this);
  }
};

TEST(EngineAlloc, SteadyStateMakesNoAllocations) {
  Engine e;
  CpuCore core(&e, CycleClock(2000), "c");
  FairLink link(&e, "link", /*gbps=*/100.0, /*fixed_ns=*/20);
  const uint32_t flow = link.AddFlow();
  uint64_t ticks = 0;
  uint64_t delivered = 0;
  e.Schedule(0, Ticker{&e, &ticks});
  e.SpawnFiber("poller", [&] {
    std::array<uint64_t, 5> payload = {1, 2, 3, 4, 5};
    for (;;) {
      core.Consume(100);  // 50 ns: some waits go inline, some queue.
      // A 48-byte completion closure, served in 25 ns: the link keeps up.
      link.Enqueue(flow, 64, [&delivered, payload] { delivered += payload[0]; });
      Engine::EventHandle deadline = e.ScheduleCancellable(1000, [] {});
      deadline.Cancel();
    }
  });
  e.RunUntil(Microseconds(100));  // Warm-up: heap, slots and rings reach size.
  const uint64_t allocs0 = g_allocations;
  const uint64_t events0 = e.events_processed();
  const uint64_t delivered0 = delivered;
  e.RunUntil(Milliseconds(1));
  EXPECT_GT(e.events_processed() - events0, 50000u);
  EXPECT_GT(delivered - delivered0, 10000u);
  EXPECT_GT(ticks, 10000u);
  EXPECT_EQ(g_allocations - allocs0, 0u);
}

}  // namespace
}  // namespace adios
