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
  while (!heap_.empty() && !stopped_) {
    if (heap_.front().when > until) {
      now_ = until;
      running_ = false;
      return;
    }
    const Entry ev = heap_.front();
    PopFront();
    ADIOS_DCHECK(ev.when >= now_);
    now_ = ev.when;
    if (ev.resume != nullptr) {
      ++events_processed_;
      ev.resume->state = ContextState::kRunning;
      RawSwitch(current_, ev.resume);
      continue;
    }
    if (slots_[ev.slot].gen != ev.gen) {
      continue;  // Cancelled.
    }
    ++events_processed_;
    // Move the callback out first: it may schedule events, which can grow
    // slots_, and the slot is free (and reusable) from here on.
    InlineFn fn = std::move(slots_[ev.slot].fn);
    FreeSlot(ev.slot);
    fn();
  }
  if (until != ~0ull && now_ < until) {
    now_ = until;
  }
  running_ = false;
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
  SwitchToMain();
}

void Engine::SuspendCurrent() {
  ADIOS_CHECK(!on_main());
  UnithreadContext* self = current_;
  self->state = ContextState::kBlocked;
  SwitchToMain();
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
