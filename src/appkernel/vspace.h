// Application-kernel backing records for spaces, pages and threads.
//
// These are the "descriptors maintained by the application kernel" that back
// the Cache Kernel's cache: the full page state of every virtual page
// (where its contents live, whether they are dirty) and the saved context of
// every thread, loaded or not. Cache Kernel identifiers are transient --
// "application kernels do not use the Cache Kernel object identifiers except
// across this interface because a new identifier is assigned each time an
// object is loaded" -- so each record keeps its own stable index (the cookie
// passed at load time) and the current identifier separately.

#ifndef SRC_APPKERNEL_VSPACE_H_
#define SRC_APPKERNEL_VSPACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/ck/cache_kernel.h"
#include "src/isa/interpreter.h"
#include "src/sim/types.h"

namespace ckapp {

inline constexpr uint32_t kNoThread = 0xffffffffu;
inline constexpr uint32_t kNoBackingPage = 0xffffffffu;

struct PageRecord {
  enum class Where : uint8_t {
    kZeroFill,  // first touch gets a zeroed frame
    kBacking,   // contents live in the backing store
    kResident,  // contents live in a physical frame (mapping may be loaded)
  };

  Where where = Where::kZeroFill;
  bool writable = false;
  bool message = false;  // message-mode (memory-based messaging) page
  bool locked = false;   // lock the mapping in the Cache Kernel when loaded
  bool dirty = false;    // frame contents newer than backing store
  bool frame_owned = true;   // false for fixed/shared frames (devices, channels)
  bool mapping_loaded = false;
  uint32_t backing_page = kNoBackingPage;
  cksim::PhysAddr frame = 0;        // valid when kResident
  cksim::PhysAddr fixed_frame = 0;  // non-zero: always map this exact frame
  uint32_t signal_thread = kNoThread;  // app-kernel thread index for signals
  cksim::PhysAddr cow_source = 0;      // deferred-copy source frame (one-shot)
};

struct VSpace {
  VSpace() = default;
  // The page index points into `pages`; a copy would point into the original.
  VSpace(const VSpace&) = delete;
  VSpace& operator=(const VSpace&) = delete;

  uint64_t cookie = 0;  // == index in the owning kernel's space table
  ck::SpaceId ck_id;    // current identifier; stale after writeback
  bool loaded = false;
  bool locked = false;

  // Keyed by page-aligned vaddr. Records are added (here or by assignment)
  // but never erased: FindPage's index holds pointers to them.
  std::map<cksim::VirtAddr, PageRecord> pages;
  std::deque<cksim::VirtAddr> resident_fifo;  // default replacement order

  // The record for the page holding `vaddr`, or nullptr. Every descriptor
  // miss looks its page up twice (fault and writeback), so this goes through
  // an open-addressed hash index of the records looked up so far; a record
  // is indexed on its first lookup, however it entered `pages`.
  PageRecord* FindPage(cksim::VirtAddr vaddr) {
    cksim::VirtAddr key = vaddr & ~static_cast<cksim::VirtAddr>(cksim::kPageOffsetMask);
    if (!index_.empty()) {
      uint32_t mask = static_cast<uint32_t>(index_.size()) - 1;
      for (uint32_t i = IndexHome(key);; i = (i + 1) & mask) {
        const IndexSlot& slot = index_[i];
        if (slot.record == nullptr) {
          break;
        }
        if (slot.vaddr == key) {
          return slot.record;
        }
      }
    }
    auto it = pages.find(key);
    if (it == pages.end()) {
      return nullptr;
    }
    if ((indexed_ + 1) * 2 > index_.size()) {
      GrowIndex();
    }
    IndexPlace(IndexSlot{key, &it->second});
    ++indexed_;
    return &it->second;
  }

 private:
  struct IndexSlot {
    cksim::VirtAddr vaddr = 0;
    PageRecord* record = nullptr;  // nullptr: empty slot
  };

  uint32_t IndexHome(cksim::VirtAddr key) const {
    return ((key >> cksim::kPageShift) * 0x9e3779b1u) >> index_shift_;
  }
  void IndexPlace(const IndexSlot& entry) {
    uint32_t mask = static_cast<uint32_t>(index_.size()) - 1;
    uint32_t i = IndexHome(entry.vaddr);
    while (index_[i].record != nullptr) {
      i = (i + 1) & mask;
    }
    index_[i] = entry;
  }
  // Double the index (16 slots at first), keeping it at most half full.
  void GrowIndex() {
    std::vector<IndexSlot> old = std::move(index_);
    uint32_t bits = old.empty() ? 4 : 32 - index_shift_ + 1;
    index_.assign(size_t{1} << bits, IndexSlot{});
    index_shift_ = 32 - bits;
    for (const IndexSlot& entry : old) {
      if (entry.record != nullptr) {
        IndexPlace(entry);
      }
    }
  }

  std::vector<IndexSlot> index_;  // power-of-two size, linear probing
  uint32_t index_shift_ = 32;
  size_t indexed_ = 0;
};

struct ThreadRec {
  uint64_t cookie = 0;  // == index in the owning kernel's thread table
  ck::ThreadId ck_id;
  bool loaded = false;
  bool finished = false;
  bool was_blocked = false;
  // Blocked on an in-flight asynchronous page-in. A checkpoint taken in this
  // window restores the thread runnable: its saved PC re-executes the
  // faulting instruction, which simply re-faults on the restored records.
  bool paging_blocked = false;
  // This record is backed by a NativeProgram (set at create time and by
  // restore). `native` itself is a host pointer and never serialized; the
  // subclass's RestoreExtra must rebind it before the thread reloads.
  bool native_record = false;

  uint32_t space_index = 0;
  uint8_t priority = 0;
  uint8_t cpu_hint = 0xff;
  bool locked = false;

  ckisa::VmContext saved;           // context while unloaded
  ck::NativeProgram* native = nullptr;
  cksim::VirtAddr signal_handler = 0;
  cksim::VirtAddr exception_stack = 0;
  cksim::Cycles total_consumed = 0;
};

}  // namespace ckapp

#endif  // SRC_APPKERNEL_VSPACE_H_
