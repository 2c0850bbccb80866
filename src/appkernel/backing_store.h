// Per-application-kernel backing store ("disk").
//
// "The application kernel also provides backing store for the object state
// when it is unloaded from the Cache Kernel" (section 2) -- and for page
// contents under demand paging. This simulated store is page-granular with a
// configurable access latency; the default (5 ms at 25 MHz) makes page I/O
// dominate fault cost exactly as section 5.2 argues it should.

#ifndef SRC_APPKERNEL_BACKING_STORE_H_
#define SRC_APPKERNEL_BACKING_STORE_H_

#include <cstdint>
#include <cstring>
#include <utility>

#include "src/base/bitmap.h"
#include "src/ck/cache_kernel.h"
#include "src/sim/physmem.h"
#include "src/sim/types.h"

namespace ckapp {

class BackingStore {
 public:
  explicit BackingStore(uint32_t pages, cksim::Cycles latency = 125000 /* 5 ms */)
      : data_(static_cast<size_t>(pages) * cksim::kPageSize), written_(pages), latency_(latency) {}

  uint32_t page_count() const {
    return static_cast<uint32_t>(data_.size() / cksim::kPageSize);
  }
  cksim::Cycles latency() const { return latency_; }

  // Transfer one page store->frame. I/O latency is charged to the calling
  // CPU; callers modeling asynchronous I/O instead block the faulting thread
  // and schedule the resume after latency() (see the UNIX emulator pager).
  void ReadPage(ck::CkApi& api, uint32_t store_page, cksim::PhysAddr frame,
                bool charge_latency = true) {
    api.WritePhys(frame, std::as_const(*this).PageData(store_page), cksim::kPageSize);
    if (charge_latency) {
      api.Charge(latency_);
    }
  }

  void WritePage(ck::CkApi& api, cksim::PhysAddr frame, uint32_t store_page,
                 bool charge_latency = true) {
    api.ReadPhys(frame, PageData(store_page), cksim::kPageSize);
    if (charge_latency) {
      api.Charge(latency_);
    }
  }

  // Direct host-side access for program loading, restore and test
  // verification. The mutable overload counts as a write to the page.
  uint8_t* PageData(uint32_t store_page) {
    written_.Assign(store_page, true);
    return data_.data() + static_cast<size_t>(store_page) * cksim::kPageSize;
  }
  const uint8_t* PageData(uint32_t store_page) const {
    return data_.data() + static_cast<size_t>(store_page) * cksim::kPageSize;
  }

  void WriteBytes(uint32_t store_page, uint32_t offset, const void* src, uint32_t len) {
    std::memcpy(PageData(store_page) + offset, src, len);
  }

  // Every page that may be nonzero: a superset of the nonzero pages, since a
  // page written and later zeroed stays in the set. Checkpoint capture walks
  // this instead of the whole store, so its cost follows the pages written.
  const ckbase::IterableBitmap& written_pages() const { return written_; }

 private:
  cksim::ZeroedBytes data_;
  ckbase::IterableBitmap written_;
  cksim::Cycles latency_;
};

}  // namespace ckapp

#endif  // SRC_APPKERNEL_BACKING_STORE_H_
