#include "src/sim/tlb.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace cksim {

Tlb::Tlb(uint32_t entries, uint32_t ways) : entries_(entries), ways_(ways) {
  uint32_t sets = ways == 0 ? 0 : entries / ways;
  if (sets * ways != entries || !std::has_single_bit(sets)) {
    std::fprintf(stderr, "tlb: %u entries in %u ways is not a power-of-two set count\n", entries,
                 ways);
    std::abort();
  }
  set_mask_ = sets - 1;
}

void Tlb::FlushAsid(uint16_t asid) {
  for (TlbEntry& e : entries_) {
    if (e.valid && e.asid == asid) {
      e.valid = false;
    }
  }
}

void Tlb::FlushFrame(uint32_t pframe) {
  for (TlbEntry& e : entries_) {
    if (e.valid && e.pframe == pframe) {
      e.valid = false;
    }
  }
}

void Tlb::FlushAll() {
  for (TlbEntry& e : entries_) {
    e.valid = false;
  }
}

}  // namespace cksim
