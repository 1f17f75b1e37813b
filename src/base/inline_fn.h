// InlineFn: a move-only `void()` callable with a 56-byte inline buffer.
//
// The event engine and the fabric links carry one callback per event. Most
// of them capture five to seven words, which is too big for std::function's
// 16-byte small-buffer, so every event would allocate. InlineFn stores any
// callable of up to kInlineBytes (and at most pointer alignment) in place
// and falls back to one heap allocation above that. The object is 64 bytes:
// the buffer plus a pointer to a per-type operations table.
//
// Trivially copyable callables (lambdas capturing pointers and integers)
// move with a memcpy; the heap fallback moves by copying its pointer.

#ifndef ADIOS_SRC_BASE_INLINE_FN_H_
#define ADIOS_SRC_BASE_INLINE_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/base/check.h"

namespace adios {

class InlineFn {
 public:
  static constexpr size_t kInlineBytes = 56;

  // True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFn() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFn(F&& fn) {  // Implicit, so a lambda converts where a callback is expected.
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      D* heap = new D(std::forward<F>(fn));
      std::memcpy(buf_, &heap, sizeof(heap));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { TakeFrom(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    ADIOS_DCHECK(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  // Destroys the stored callable, leaving this empty.
  void Reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) {
      ops_->destroy(buf_);
    }
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-constructs into `dst` and destroys `src`; null = memcpy the buffer.
    void (*relocate)(void* dst, void* src);
    // Null = trivially destructible, nothing to do.
    void (*destroy)(void* buf);
  };

  template <typename D>
  static D* InlinePtr(void* buf) {
    return std::launder(static_cast<D*>(buf));
  }
  template <typename D>
  static D* HeapPtr(void* buf) {
    D* heap;
    std::memcpy(&heap, buf, sizeof(heap));
    return heap;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* buf) { (*InlinePtr<D>(buf))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) {
              D* from = InlinePtr<D>(src);
              ::new (dst) D(std::move(*from));
              from->~D();
            },
      std::is_trivially_destructible_v<D> ? nullptr
                                          : +[](void* buf) { InlinePtr<D>(buf)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* buf) { (*HeapPtr<D>(buf))(); },
      nullptr,  // The buffer holds only the pointer.
      [](void* buf) { delete HeapPtr<D>(buf); },
  };

  void TakeFrom(InlineFn& other) {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      // A fixed-size copy; the bytes past a small callable are indeterminate,
      // which copying as unsigned char permits.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
      std::memcpy(buf_, other.buf_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }
    other.ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(InlineFn) == 64, "56-byte buffer plus the ops pointer");

}  // namespace adios

#endif  // ADIOS_SRC_BASE_INLINE_FN_H_
