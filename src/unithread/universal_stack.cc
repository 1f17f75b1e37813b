#include "src/unithread/universal_stack.h"

namespace adios {

UnithreadPool::UnithreadPool(const Options& options)
    : options_(options),
      arena_(options.count * options.buffer_size),
      in_use_(options.count, false) {
  ADIOS_CHECK(options_.count > 0);
  ADIOS_CHECK_EQ(options_.mtu % alignof(UnithreadContext), 0u);
  // 16-aligned buffers keep every embedded stack 16-aligned at allocation
  // time (the SysV ABI requirement), not just after Reset's rounding.
  ADIOS_CHECK_EQ(options_.buffer_size % 16, 0u);
  ADIOS_CHECK_GT(options_.buffer_size,
                 options_.mtu + sizeof(UnithreadContext) + kStackCanaryBytes + 512);

  free_.reserve(options_.count);
  // LIFO free list: most-recently-released buffer is reused first, which
  // keeps the hot set of stacks small and cache-friendly — and, with index 0
  // on top, keeps the buffers ever handed out a prefix of the arena.
  for (size_t i = options_.count; i > 0; --i) {
    free_.push_back(static_cast<uint32_t>(i - 1));
  }
}

UnithreadBuffer UnithreadPool::Acquire() {
  if (free_.empty()) {
    return UnithreadBuffer();
  }
  const uint32_t idx = free_.back();
  free_.pop_back();
  UnithreadBuffer buf = FromIndex(idx);
  if (idx == handed_out_) {
    // First hand-out: the buffer's pages are still untouched zero pages.
    ++handed_out_;
    WriteStackCanary(buf.canary(), kStackCanaryBytes);
    if (options_.paint_stacks) {
      PaintStack(buf.stack_low(), buf.stack_size());
    }
  }
  ADIOS_DCHECK(idx < handed_out_);
  in_use_[idx] = true;
  buf.context()->id = idx;
  return buf;
}

void UnithreadPool::Release(UnithreadBuffer buffer) {
  ADIOS_CHECK(buffer.valid());
  const std::byte* base = buffer.payload();
  const ptrdiff_t offset = base - arena_.data();
  ADIOS_CHECK(offset >= 0);
  ADIOS_CHECK_EQ(static_cast<size_t>(offset) % options_.buffer_size, 0u);
  const size_t idx = static_cast<size_t>(offset) / options_.buffer_size;
  ADIOS_CHECK_LT(idx, handed_out_);
  ADIOS_CHECK(in_use_[idx]);  // A double release.
  in_use_[idx] = false;
  // A trampled canary means this unithread overflowed its universal stack at
  // some point during its life; catch it at retirement, with the buffer
  // index in hand, rather than letting the corruption spread on reuse.
  ADIOS_CHECK(StackCanaryIntact(buffer.canary(), kStackCanaryBytes));
  free_.push_back(static_cast<uint32_t>(idx));
}

UnithreadPool::AuditResult UnithreadPool::Audit() const {
  AuditResult result;
  // Free-list integrity: every index in range, no duplicates.
  std::vector<bool> seen(options_.count, false);
  for (uint32_t idx : free_) {
    if (idx >= options_.count || seen[idx]) {
      result.free_list_ok = false;
      break;
    }
    seen[idx] = true;
  }
  // A never-handed-out buffer has no canary yet, so it must still be free.
  for (size_t i = handed_out_; i < options_.count && result.free_list_ok; ++i) {
    result.free_list_ok = seen[i];
  }
  for (size_t i = 0; i < handed_out_; ++i) {
    UnithreadBuffer buf = FromIndex(static_cast<uint32_t>(i));
    ++result.buffers_checked;
    if (!StackCanaryIntact(buf.canary(), kStackCanaryBytes)) {
      ++result.canary_violations;
    }
    if (options_.paint_stacks) {
      const size_t hwm = StackHighWaterMark(buf.stack_low(), buf.stack_size());
      if (hwm > result.max_high_water) {
        result.max_high_water = hwm;
      }
    }
  }
  return result;
}

}  // namespace adios
