// Discrete-event simulation engine with unithread-fiber integration.
//
// The engine owns a virtual clock (integer nanoseconds) and a deterministic
// event queue (ties broken by insertion order). The queue is a calendar
// queue (Brown, "Calendar Queues", CACM 1988): a wheel of fixed-width time
// buckets covering the next ~131 us, plus a small heap for the rare event
// due further out; see the queue section below. Simulated actors — CPU core
// loops, the load generator, NIC engines — either run as plain scheduled
// callbacks or as *fibers*: real unithread contexts that can suspend at a
// simulated time (`Wait`) or until another actor resumes them.
//
// Context discipline: the engine tracks the currently executing context.
// Every switch site must go through RawSwitch() so the tracking stays
// correct; after any AdiosContextSwitch(from, to) returns, the code is
// executing as `from` again and current is restored to it.
// Application unithreads managed by the MD scheduler are entered from worker
// fibers with RawSwitch, so a fault handler deep inside application code can
// still Wait() on the engine and be resumed later.
//
// Direct handoff: a context that blocks runs the dispatch step itself
// instead of returning to the main context first. When the next event is its
// own wake-up it keeps running; when it is another context's wake-up it
// switches straight there (one switch, not two through main); a fiber runs
// callback events in place on its own stack. Only the rest (a callback while
// on a unithread's small pool stack, the RunUntil horizon, Stop(), an empty
// queue) goes back to main. The pop order and accounting are the main loop's
// exactly, because both use the same Dispatch() step.

#ifndef ADIOS_SRC_SIM_ENGINE_H_
#define ADIOS_SRC_SIM_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/annotations.h"
#include "src/base/check.h"
#include "src/base/inline_fn.h"
#include "src/base/time.h"
#include "src/check/stack_guard.h"
#include "src/unithread/context.h"

namespace adios {

class Engine;

// A simulated long-lived actor (dispatcher loop, worker loop, reclaimer,
// NIC engine) running on its own real stack.
class Fiber {
 public:
  Fiber(Engine* engine, std::string name, std::function<void()> fn, size_t stack_bytes);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  UnithreadContext* ctx() { return &ctx_; }
  const std::string& name() const { return name_; }
  bool finished() const { return ctx_.finished(); }

 private:
  friend class Engine;
  static void Entry(void* arg);

  std::string name_;
  std::function<void()> fn_;
  GuardedStack stack_;  // Canary-guarded, 16-aligned, painted for HWM audits.
  UnithreadContext ctx_;
};

class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  // --- Event API (usable from anywhere) ---

  void Schedule(SimDuration delay, InlineFn fn) { ScheduleAt(now_ + delay, std::move(fn)); }
  void ScheduleAt(SimTime when, InlineFn fn) {
    ADIOS_DCHECK(when >= now_);
    const uint32_t slot = AllocSlot(std::move(fn));
    Push(when, nullptr, slot, slots_[slot].gen);
  }

  // Handle to a ScheduleCancellable event: {engine, slot, generation}.
  // Cancel() skips the event if it has not fired yet; after it fired (or was
  // cancelled) the slot carries a newer generation, so Cancel() is a no-op
  // and pending() is false even once the slot is reused. Copies name the same
  // event. Destroying a handle does not cancel its event. A handle must not
  // be used after its engine is destroyed.
  class EventHandle {
   public:
    EventHandle() = default;
    void Cancel() {
      if (pending()) {
        engine_->FreeSlot(slot_);
      }
    }
    bool pending() const { return engine_ != nullptr && engine_->slots_[slot_].gen == gen_; }

   private:
    friend class Engine;
    EventHandle(Engine* engine, uint32_t slot, uint32_t gen)
        : engine_(engine), slot_(slot), gen_(gen) {}

    Engine* engine_ = nullptr;
    uint32_t slot_ = 0;
    uint32_t gen_ = 0;
  };
  EventHandle ScheduleCancellable(SimDuration delay, InlineFn fn) {
    const uint32_t slot = AllocSlot(std::move(fn));
    const uint32_t gen = slots_[slot].gen;
    Push(now_ + delay, nullptr, slot, gen);
    return EventHandle(this, slot, gen);
  }

  // Runs events until the queue empties or Stop() is called.
  ADIOS_MAY_SUSPEND void Run();
  // Runs events with time <= until; leaves later events queued and sets
  // now() to `until` when the horizon is reached. A run cut short by Stop()
  // leaves now() at the stop time, so earlier events queued behind it still
  // pop in time order.
  ADIOS_MAY_SUSPEND void RunUntil(SimTime until);
  void Stop() { stopped_ = true; }

  // --- Fiber API ---

  // Creates a fiber and schedules its first run at the current time. While
  // the fiber is blocked its stack also hosts the callbacks it dispatches in
  // place, so keep `stack_bytes` at the default unless callbacks are shallow.
  Fiber* SpawnFiber(std::string name, std::function<void()> fn,
                    size_t stack_bytes = kDefaultFiberStack);

  // From inside any engine-managed context (never from a callback): suspend
  // for `d` simulated time. A queued wake-up blocks through the direct
  // handoff described at the top of this file.
  //
  // Inline advance: when the wake-up would be the very next event the loop
  // pops, the caller keeps running and the clock moves here instead. That is
  // the case while RunUntil is running and not stopped, the wake-up time is
  // within its horizon, and the queue is empty or its earliest entry is
  // strictly later (an entry at the same time has a smaller seq and would run
  // first). next_seq_ and events_processed_ advance exactly as the queued
  // wake-up's push and dispatch would have, so every later event keeps its
  // seq and the run is bit-identical to queueing.
  ADIOS_MAY_SUSPEND void Wait(SimDuration d) {
    ADIOS_CHECK(may_block());
    const SimTime wake = now_ + d;
    if (running_ && !stopped_ && wake <= horizon_ && (front_.when > wake || empty())) {
      now_ = wake;
      ++next_seq_;
      ++events_processed_;
      return;
    }
    WaitQueued(wake);
  }

  // From inside any engine-managed context (never from a callback): suspend
  // until resumed.
  ADIOS_MAY_SUSPEND void SuspendCurrent();

  // Schedules `ctx` to resume after `delay`. Must not double-resume. Never
  // suspends the *caller*: the switch into `ctx` happens when the event is
  // dispatched, by whichever context dispatches it — the main loop, or a
  // context that blocks and hands off straight to `ctx`.
  ADIOS_NO_SUSPEND void ResumeLater(UnithreadContext* ctx, SimDuration delay = 0) {
    ADIOS_DCHECK(ctx != nullptr);
    Push(now_ + delay, ctx, 0, 0);
  }

  // Low-level switch that keeps current-context tracking coherent. `from`
  // must be the currently executing context.
  ADIOS_MAY_SUSPEND void RawSwitch(UnithreadContext* from, UnithreadContext* to) {
    ADIOS_DCHECK(from == current_);
    current_ = to;
    AdiosTrackedContextSwitch(from, to);
    current_ = from;
  }

  // The executing context. Inside a callback that a blocked fiber runs in
  // place, this is that fiber.
  UnithreadContext* current_context() { return current_; }
  UnithreadContext* main_context() { return &main_ctx_; }
  bool on_main() const { return current_ == &main_ctx_; }

  // True for contexts participating in the engine's current-context
  // protocol: the main context and every fiber context. The switch-
  // discipline checker (src/check/) flags direct AdiosContextSwitch calls
  // on these. Linear in fiber count; audit-path only.
  bool IsTrackedContext(const UnithreadContext* ctx) const;

  // Canary + high-water-mark audit over all fiber stacks.
  struct StackAuditResult {
    size_t fibers = 0;
    size_t canary_violations = 0;
    size_t max_high_water = 0;  // Deepest stack usage seen, in bytes.
  };
  StackAuditResult AuditStacks() const;

  uint64_t events_processed() const { return events_processed_; }

  static constexpr size_t kDefaultFiberStack = 256 * 1024;

  // Calendar-queue geometry (see the queue section below): kBuckets buckets
  // of kBucketNs = 32 ns make a wheel of kWheelNs = 131 us.
  static constexpr unsigned kBucketShift = 5;
  static constexpr uint64_t kBuckets = 4096;
  static constexpr SimDuration kBucketNs = SimDuration{1} << kBucketShift;
  static constexpr SimDuration kWheelNs = kBucketNs * kBuckets;

 private:
  // One queued event: 24 bytes, no owned state. A non-null `resume` is a
  // fiber wake-up (Wait, ResumeLater, SpawnFiber) that switches straight to
  // that context. Otherwise the callback lives in slots_[slot], and the entry
  // is stale (its event was cancelled) when the slot's generation moved on.
  // Ties break by insertion order (seq), which the queue keeps positionally;
  // only entries beyond the wheel store their seq (FarEntry).
  struct Entry {
    SimTime when;
    UnithreadContext* resume;
    uint32_t slot;
    uint32_t gen;
  };

  // Callback storage, recycled through free_slots_. `gen` advances each time
  // the slot is freed (fired or cancelled), which invalidates queued entries
  // and handles that still name the old generation.
  struct Slot {
    InlineFn fn;
    uint32_t gen = 0;
  };

  // True in an engine-managed context outside any callback: the only place
  // Wait/SuspendCurrent may run. A callback must never suspend, whether it
  // runs on main or in place on a blocked fiber.
  bool may_block() const { return !on_main() && !in_callback_; }

  // Queues a wake-up of the current context at `wake` and suspends it.
  ADIOS_MAY_SUSPEND void WaitQueued(SimTime wake);

  // Suspends the current (already kBlocked) context by direct handoff: it
  // dispatches for itself and switches to main only when it must.
  ADIOS_MAY_SUSPEND void Block();

  // The one dispatch step, shared by RunUntil and Block. Pops entries in
  // (when, seq) order up to the horizon, skips stale ones, and runs callbacks
  // on the calling stack when `run_callbacks`. Returns the first live
  // wake-up's context, already marked running, for the caller to switch to
  // (or keep running, if it is the caller). Returns nullptr, with that entry
  // left queued, on Stop(), an empty queue, an entry past the horizon, or a
  // live callback when `run_callbacks` is false.
  UnithreadContext* Dispatch(bool run_callbacks);

  // --- Event queue: a calendar queue ---
  //
  // The wheel is kBuckets buckets of kBucketNs each. cur_ is an absolute
  // bucket number (when >> kBucketShift); the wheel holds exactly the
  // entries of buckets [cur_, cur_ + kBuckets), so ring slot b % kBuckets
  // names one absolute bucket b. Each bucket is an intrusive singly linked
  // list of nodes_ in (when, seq) order. A push has the newest seq, so it
  // goes after every entry at or before its time: almost always at the tail.
  // occupied_ has one bit per bucket and summary_ one bit per occupied_ word,
  // so the next non-empty bucket is two ctz away. Entries due at or past
  // cur_ + kBuckets wait in overflow_, a binary heap in (when, seq) order.
  // cur_ only grows, and whenever it does the overflow entries now inside
  // the wheel move in, before any push can land in their range: every wheel
  // entry is earlier than every overflow entry, and buckets fill in order.
  //
  // cur_ never passes the bucket of now_ or of any queued entry: a pop moves
  // it to the popped entry's bucket (now_ is that entry's time), and a push
  // beyond the wheel moves it up to the earlier of the two. Every push is at
  // or after now_, so it never lands behind cur_. front_ is a copy of the
  // earliest entry, so the dispatch loop and the inline advance read it
  // without a lookup. Freed nodes are recycled through free_node_, so the
  // steady state allocates nothing.
  static constexpr size_t kWords = kBuckets / 64;
  static_assert(kWords == 64, "summary_ holds one bit per occupied_ word");
  static constexpr uint32_t kNil = ~0u;
  static constexpr SimTime kNever = ~0ull;

  struct Node {
    Entry entry;
    uint32_t next;
  };
  static_assert(sizeof(Node) == 32);
  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };
  struct FarEntry {
    Entry entry;
    uint64_t seq;
  };
  // Heap order for overflow_: a is popped after b.
  static bool Later(const FarEntry& a, const FarEntry& b) {
    return a.entry.when != b.entry.when ? a.entry.when > b.entry.when : a.seq > b.seq;
  }

  static uint64_t BucketOf(SimTime when) { return when >> kBucketShift; }
  static size_t RingOf(SimTime when) { return BucketOf(when) & (kBuckets - 1); }

  bool empty() const { return wheel_size_ == 0 && overflow_.empty(); }
  // Ring index of the first non-empty bucket at or after cur_, wrapping.
  // Requires wheel_size_ != 0.
  size_t NextOccupied() const {
    const size_t r = cur_ & (kBuckets - 1);
    const size_t w = r / 64;
    const uint64_t bits = occupied_[w] & (~0ull << (r % 64));
    if (bits != 0) {
      return w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
    }
    // Words after w, else wrap around to the lowest (which may be w itself:
    // its bits at or after r are clear, so only the wrapped ones remain).
    uint64_t words = summary_ & ~((2ull << w) - 1);
    if (words == 0) {
      words = summary_;
    }
    const size_t w2 = static_cast<size_t>(__builtin_ctzll(words));
    return w2 * 64 + static_cast<size_t>(__builtin_ctzll(occupied_[w2]));
  }

  void Push(SimTime when, UnithreadContext* resume, uint32_t slot, uint32_t gen) {
    const Entry e{when, resume, slot, gen};
    const uint64_t seq = next_seq_++;
    // Unsigned: a push is never behind cur_.
    if (BucketOf(when) - cur_ < kBuckets) {
      InsertWheel(e);
    } else {
      PushFar(FarEntry{e, seq});
    }
    if (when < front_.when) {
      front_ = e;
    }
  }
  // Queues e in its bucket after every entry due at or before it, which is
  // its (when, seq) place when e is newer than the bucket's entries.
  void InsertWheel(const Entry& e) {
    uint32_t n = free_node_;
    if (n == kNil) {
      n = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(Node{e, kNil});
    } else {
      free_node_ = nodes_[n].next;
      nodes_[n] = Node{e, kNil};
    }
    ++wheel_size_;
    const size_t r = RingOf(e.when);
    Bucket& b = buckets_[r];
    if (b.tail == kNil) {
      b.head = b.tail = n;
      occupied_[r / 64] |= 1ull << (r % 64);
      summary_ |= 1ull << (r / 64);
    } else if (nodes_[b.tail].entry.when <= e.when) {
      nodes_[b.tail].next = n;
      b.tail = n;
    } else {
      InsertBefore(b, n);
    }
  }
  // Links node n into b ahead of b's tail, which is due later than n.
  void InsertBefore(Bucket& b, uint32_t n);
  // Queues an entry due at or past the wheel's end.
  void PushFar(const FarEntry& e);
  // Removes front_ and copies the next earliest entry there.
  void PopFront();
  // Moves cur_ up to `bucket` and the overflow entries now inside the wheel
  // into it.
  void AdvanceWheel(uint64_t bucket);

  uint32_t AllocSlot(InlineFn fn) {
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    slots_[slot].fn = std::move(fn);
    return slot;
  }
  void FreeSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    s.fn.Reset();
    ++s.gen;
    free_slots_.push_back(slot);
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  bool stopped_ = false;
  bool running_ = false;
  bool in_callback_ = false;  // A dispatched callback is executing.
  SimTime horizon_ = 0;  // `until` of the RunUntil in progress.
  Entry front_{kNever, nullptr, 0, 0};  // Earliest entry; when kNever if empty.
  uint64_t cur_ = 0;  // Absolute bucket at the wheel's start.
  size_t wheel_size_ = 0;
  std::array<Bucket, kBuckets> buckets_;
  std::array<uint64_t, kWords> occupied_{};
  uint64_t summary_ = 0;
  std::vector<Node> nodes_;
  uint32_t free_node_ = kNil;
  std::vector<FarEntry> overflow_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  UnithreadContext main_ctx_;
  UnithreadContext* current_ = &main_ctx_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
};

}  // namespace adios

#endif  // ADIOS_SRC_SIM_ENGINE_H_
