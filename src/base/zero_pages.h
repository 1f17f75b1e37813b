// ZeroPages: a fixed-size block of host memory that reads as zero and costs
// only the pages it touches.
//
// A value-initialised std::vector<std::byte> zero-fills (and so faults in)
// every page at construction. ZeroPages is an anonymous private mapping
// instead: the kernel hands out zeroed pages on first touch, so a large
// reservation whose use is sparse or grows slowly (the unithread arena, the
// remote region) costs nothing up front. Unmapped on destruction.

#ifndef ADIOS_SRC_BASE_ZERO_PAGES_H_
#define ADIOS_SRC_BASE_ZERO_PAGES_H_

#include <sys/mman.h>

#include <cstddef>

#include "src/base/check.h"

namespace adios {

class ZeroPages {
 public:
  explicit ZeroPages(size_t bytes) : size_(bytes) {
    if (bytes == 0) {
      return;
    }
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ADIOS_CHECK(p != MAP_FAILED);
    data_ = static_cast<std::byte*>(p);
  }
  ~ZeroPages() {
    if (data_ != nullptr) {
      munmap(data_, size_);
    }
  }

  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  std::byte* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_BASE_ZERO_PAGES_H_
