#include "src/sim/engine.h"

#include <algorithm>

namespace adios {

Fiber::Fiber(Engine* engine, std::string name, std::function<void()> fn, size_t stack_bytes)
    : name_(std::move(name)),
      fn_(std::move(fn)),
      // Fibers are few and long-lived, so always paint for high-water marks.
      stack_((stack_bytes + 15) & ~static_cast<size_t>(15), /*paint=*/true) {
  ADIOS_CHECK_GE(stack_bytes, 4096u);
  ctx_.Reset(stack_.data(), stack_.size(), &Fiber::Entry, this, engine->main_context());
}

void Fiber::Entry(void* arg) {
  auto* fiber = static_cast<Fiber*>(arg);
  fiber->fn_();
}

Engine::Engine() = default;

Engine::~Engine() = default;

void Engine::Run() { RunUntil(~0ull); }

void Engine::RunUntil(SimTime until) {
  ADIOS_CHECK(on_main());
  ADIOS_CHECK(!running_);
  running_ = true;
  stopped_ = false;
  horizon_ = until;
  // A context resumed here may hand off to others; control comes back once
  // one of them meets the horizon, Stop(), an empty queue, or a callback it
  // cannot run on its stack.
  while (UnithreadContext* next = Dispatch(/*run_callbacks=*/true)) {
    RawSwitch(&main_ctx_, next);
  }
  if (until != ~0ull && now_ < until) {
    now_ = until;
  }
  running_ = false;
}

UnithreadContext* Engine::Dispatch(bool run_callbacks) {
  while (!stopped_ && !empty()) {
    if (front_.when > horizon_) {
      return nullptr;
    }
    const Entry ev = front_;
    const bool live = ev.resume != nullptr || slots_[ev.slot].gen == ev.gen;
    if (live && ev.resume == nullptr && !run_callbacks) {
      return nullptr;
    }
    PopFront();
    ADIOS_DCHECK(ev.when >= now_);
    now_ = ev.when;
    if (!live) {
      continue;  // Cancelled.
    }
    ++events_processed_;
    if (ev.resume != nullptr) {
      ev.resume->state = ContextState::kRunning;
      return ev.resume;
    }
    // Move the callback out first: it may schedule events, which can grow
    // slots_, and the slot is free (and reusable) from here on.
    InlineFn fn = std::move(slots_[ev.slot].fn);
    FreeSlot(ev.slot);
    in_callback_ = true;
    fn();
    in_callback_ = false;
  }
  return nullptr;
}

void Engine::InsertBefore(Bucket& b, uint32_t n) {
  const SimTime when = nodes_[n].entry.when;
  uint32_t* link = &b.head;
  while (nodes_[*link].entry.when <= when) {
    link = &nodes_[*link].next;
  }
  nodes_[n].next = *link;
  *link = n;
}

void Engine::PushFar(const FarEntry& e) {
  // The wheel may lag behind now_ (after inline advances or a horizon jump):
  // move it up as far as it may go, then queue e wherever it now falls.
  if (empty()) {
    front_ = e.entry;  // Push() cannot tell an entry at kNever from none.
  }
  const uint64_t bucket = BucketOf(std::min(now_, front_.when));
  if (bucket > cur_) {
    AdvanceWheel(bucket);
  }
  if (BucketOf(e.entry.when) - cur_ < kBuckets) {
    InsertWheel(e.entry);
  } else {
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), Later);
  }
}

void Engine::PopFront() {
  const SimTime when = front_.when;
  // cur_ moves to the popped entry's bucket first; if that entry was in
  // overflow_, it is now the head of its wheel bucket.
  if (BucketOf(when) != cur_) {
    AdvanceWheel(BucketOf(when));
  }
  const size_t r = RingOf(when);
  Bucket& b = buckets_[r];
  const uint32_t n = b.head;
  b.head = nodes_[n].next;
  nodes_[n].next = free_node_;
  free_node_ = n;
  --wheel_size_;
  if (b.head != kNil) {
    front_ = nodes_[b.head].entry;
    return;
  }
  b.tail = kNil;
  occupied_[r / 64] &= ~(1ull << (r % 64));
  if (occupied_[r / 64] == 0) {
    summary_ &= ~(1ull << (r / 64));
  }
  if (wheel_size_ != 0) {
    front_ = nodes_[buckets_[NextOccupied()].head].entry;
  } else if (!overflow_.empty()) {
    front_ = overflow_.front().entry;
  } else {
    front_.when = kNever;
  }
}

void Engine::AdvanceWheel(uint64_t bucket) {
  ADIOS_DCHECK(bucket > cur_);
  cur_ = bucket;
  // Popped in (when, seq) order into buckets no push could reach yet, so
  // each lands at its bucket's tail.
  const SimTime end = (cur_ + kBuckets) << kBucketShift;
  while (!overflow_.empty() && overflow_.front().entry.when < end) {
    const Entry e = overflow_.front().entry;
    std::pop_heap(overflow_.begin(), overflow_.end(), Later);
    overflow_.pop_back();
    InsertWheel(e);
  }
}

Fiber* Engine::SpawnFiber(std::string name, std::function<void()> fn, size_t stack_bytes) {
  fibers_.push_back(std::make_unique<Fiber>(this, std::move(name), std::move(fn), stack_bytes));
  Fiber* fiber = fibers_.back().get();
  Push(now_, fiber->ctx(), 0, 0);
  return fiber;
}

void Engine::WaitQueued(SimTime wake) {
  UnithreadContext* self = current_;
  self->state = ContextState::kBlocked;
  Push(wake, self, 0, 0);
  Block();
}

void Engine::SuspendCurrent() {
  ADIOS_CHECK(may_block());
  current_->state = ContextState::kBlocked;
  Block();
}

void Engine::Block() {
  UnithreadContext* self = current_;
  UnithreadContext* next = nullptr;
  if (running_) {
    // Only an engine fiber's stack (kDefaultFiberStack) hosts callbacks; a
    // unithread's pool stack is sized for its handler alone.
    next = Dispatch(/*run_callbacks=*/self->entry == &Fiber::Entry);
  }
  if (next == self) {
    return;  // Its own wake-up was next: no switch.
  }
  RawSwitch(self, next != nullptr ? next : &main_ctx_);
}

bool Engine::IsTrackedContext(const UnithreadContext* ctx) const {
  if (ctx == &main_ctx_) {
    return true;
  }
  for (const auto& fiber : fibers_) {
    if (&fiber->ctx_ == ctx) {
      return true;
    }
  }
  return false;
}

Engine::StackAuditResult Engine::AuditStacks() const {
  StackAuditResult result;
  for (const auto& fiber : fibers_) {
    ++result.fibers;
    if (!fiber->stack_.CanaryIntact()) {
      ++result.canary_violations;
    }
    const size_t hwm = fiber->stack_.HighWaterMark();
    if (hwm > result.max_high_water) {
      result.max_high_water = hwm;
    }
  }
  return result;
}

}  // namespace adios
