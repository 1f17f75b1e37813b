// Fifo: an unbounded FIFO queue on a growable power-of-two ring.
//
// std::deque frees and allocates a block every few elements as its contents
// walk forward, even when it never holds more than one element. Fifo keeps
// its ring once grown, so a queue in steady state makes no allocations. The
// simulation is single-threaded, so no synchronization is needed.

#ifndef ADIOS_SRC_BASE_FIFO_H_
#define ADIOS_SRC_BASE_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace adios {

template <typename T>
class Fifo {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(T value) {
    if (size_ == ring_.size()) {
      Grow();
    }
    ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(value);
    ++size_;
  }

  T& front() {
    ADIOS_DCHECK(size_ > 0);
    return ring_[head_];
  }

  // Drops the front element (resetting its slot, so owned state is released).
  void pop_front() {
    ADIOS_DCHECK(size_ > 0);
    ring_[head_] = T();
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> bigger(ring_.empty() ? 8 : 2 * ring_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> ring_;  // Capacity is zero or a power of two.
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_BASE_FIFO_H_
