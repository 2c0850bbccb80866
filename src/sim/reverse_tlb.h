// Per-processor reverse TLB for memory-based-messaging signal delivery.
//
// Section 4.1: "a per-processor reverse-TLB is provided that maps physical
// addresses to the corresponding virtual address and signal handler function
// pairs. When the Cache Kernel receives a signal on a given physical address,
// each processor that receives the signal checks whether the physical address
// 'reverse translates' according to this reverse TLB. If so, the signal is
// delivered immediately to the active thread. Otherwise, it uses the
// two-stage lookup." The prototype implemented it in software inside the
// Cache Kernel; we model it as a small per-CPU direct-mapped table the Cache
// Kernel fills and invalidates.

#ifndef SRC_SIM_REVERSE_TLB_H_
#define SRC_SIM_REVERSE_TLB_H_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/sim/types.h"

namespace cksim {

class ReverseTlb {
 public:
  // `entries` must be a power of two; any other size aborts.
  explicit ReverseTlb(uint32_t entries = 32) : entries_(entries), mask_(entries - 1) {
    if (!std::has_single_bit(entries)) {
      std::fprintf(stderr, "reverse tlb: %u entries is not a power of two\n", entries);
      std::abort();
    }
  }

  struct Entry {
    bool valid = false;
    uint32_t pframe = 0;
    VirtAddr vbase = 0;          // receiver's virtual base of the frame
    uint64_t thread_id = 0;      // packed id of the signal thread on this CPU
    VirtAddr handler = 0;        // guest signal-handler entry (0 for native)
    uint64_t map_version = 0;    // pmap version at insert time (section 4.2:
                                 // re-validate before trusting the entry)
  };

  // Fast path lookup by physical frame.
  const Entry* Lookup(uint32_t pframe) const {
    const Entry& e = entries_[pframe & mask_];
    if (e.valid && e.pframe == pframe) {
      ++hits_;
      return &e;
    }
    ++misses_;
    return nullptr;
  }

  void Insert(const Entry& entry) { entries_[entry.pframe & mask_] = entry; }

  void InvalidateFrame(uint32_t pframe) {
    Entry& e = entries_[pframe & mask_];
    if (e.valid && e.pframe == pframe) {
      e.valid = false;
    }
  }

  void InvalidateThread(uint64_t thread_id) {
    for (Entry& e : entries_) {
      if (e.valid && e.thread_id == thread_id) {
        e.valid = false;
      }
    }
  }

  void InvalidateAll() {
    for (Entry& e : entries_) {
      e.valid = false;
    }
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::vector<Entry> entries_;
  uint32_t mask_;  // entries - 1
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
};

}  // namespace cksim

#endif  // SRC_SIM_REVERSE_TLB_H_
