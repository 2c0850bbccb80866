#include "src/sim/physmem.h"

#include <cstdio>
#include <cstdlib>

namespace cksim {

namespace {

// Round up to a whole number of page groups.
uint32_t RoundToPageGroups(uint32_t size_bytes) {
  return ((size_bytes + kPageGroupBytes - 1) / kPageGroupBytes) * kPageGroupBytes;
}

}  // namespace

PhysicalMemory::PhysicalMemory(uint32_t size_bytes) : bytes_(RoundToPageGroups(size_bytes)) {
  uint32_t rounded = size();
  frame_gen_.assign(rounded / kPageSize, 0);
  frame_tier_.assign(rounded / kPageSize, static_cast<uint8_t>(MemTier::kNone));
  tier_count_[static_cast<uint8_t>(MemTier::kNone)] = rounded / kPageSize;
}

void PhysicalMemory::OutOfRange(PhysAddr addr, uint32_t len) const {
  std::fprintf(stderr, "physmem: access [%#x, +%u) outside %#x bytes\n", addr, len, size());
  std::abort();
}

void PhysicalMemory::Read(PhysAddr addr, void* out, uint32_t len) const {
  Check(addr, len);
  std::memcpy(out, bytes_.data() + addr, len);
}

void PhysicalMemory::Write(PhysAddr addr, const void* data, uint32_t len) {
  Check(addr, len);
  std::memcpy(bytes_.data() + addr, data, len);
  BumpFrameGenerationRange(addr, len);
}

void PhysicalMemory::Zero(PhysAddr addr, uint32_t len) {
  Check(addr, len);
  std::memset(bytes_.data() + addr, 0, len);
  BumpFrameGenerationRange(addr, len);
}

}  // namespace cksim
