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
  while (!stopped_ && !heap_.empty()) {
    const Entry ev = heap_.front();
    if (ev.when > horizon_) {
      return nullptr;
    }
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

void Engine::PopFront() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t i = 0;
  for (;;) {
    const size_t first = kArity * i + 1;
    if (first >= n) {
      break;
    }
    const size_t end = std::min(first + kArity, n);
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (Later(heap_[best], heap_[c])) {
        best = c;
      }
    }
    if (!Later(last, heap_[best])) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
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
