// Deterministic fuzzing of checkpoint images (docs/CHECKPOINT.md).
//
// A checkpoint image is untrusted input: it arrives over the fiber channel
// or out of a stable store. A fixed-seed mutator derives malformed images
// from one serialized rich-kernel checkpoint -- flipped bytes, truncations,
// edited length and count fields, and duplicated, dropped, reordered or
// rewritten records that carry valid CRCs -- and feeds each through
// CkptImage::Parse and Srm::Restore. Every input must either be rejected,
// leaving nothing of the kernel loaded on the target, or restore cleanly:
// the restored kernel survives paging every page it describes in and out
// and running for a while, with the Cache Kernel's invariants intact.
//
// Input i of the sweep is Mutate(base, kSweepSeed + i), so any failure is
// reproduced by its seed alone. Seeds that once found a defect are kept in
// kRegressionSeeds and replayed before the sweep.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/image.h"
#include "src/ckpt/serializer.h"
#include "src/isa/assembler.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using ckckpt::CkptImage;
using ckckpt::CkptRecord;
using ckckpt::FrameRemap;
using ckckpt::RecordType;
using ckckpt::RestoreOptions;
using cktest::TestWorld;

constexpr uint64_t kSweepSeed = 0x5eedc4c7;
constexpr uint32_t kSweepInputs = 1500;

// Seeds whose inputs exposed a defect, replayed first (see file comment).
constexpr uint64_t kRegressionSeeds[] = {
    // kBackingMeta dropped: the restore failed after the relaunch and left the
    // kernel object loaded.
    kSweepSeed + 1,
    // page_groups beyond the machine: the relaunch itself failed on its grant
    // after loading the kernel object, and left it loaded.
    kSweepSeed + 39,
    // A backed page's index beyond the store was accepted; touching the page
    // read past the end of the backing store (SIGSEGV).
    kSweepSeed + 969,
    // A swap allocator beyond the store was accepted; the next page-out wrote
    // past the end of the backing store (SIGSEGV).
    kSweepSeed + 33,
};

constexpr const char* kWorkerSrc = R"(
      li   t0, 0x40000000
  loop:
      lw   t1, 0(t0)
      addi t1, t1, 1
      sw   t1, 0(t0)
      j    loop
)";

constexpr const char* kFinisherSrc = R"(
      addi s0, r0, 7
      halt
)";

ckisa::Program MustAssemble(const char* source, uint32_t base) {
  ckisa::AssembleResult result = ckisa::Assemble(source, base);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

// One checkpoint of a kernel that exercises every record type: zero-fill,
// backing-store, fixed-frame (message) and deferred-copy pages, a looping
// and a finished guest thread, swap, stats and the app-extra policy blob.
// `*channel` is the physical base of its fixed channel region.
std::vector<uint8_t> RichImage(cksim::PhysAddr* channel) {
  TestWorld a;
  uint32_t group = a.srm().ReserveGroups(1).value();
  cksim::PhysAddr fixed = group * cksim::kPageGroupBytes;
  *channel = fixed;

  ckapp::AppKernelBase app("fuzz", 64);
  cksrm::LaunchParams params;
  params.page_groups = 1;
  params.max_priority = 30;
  EXPECT_TRUE(a.srm().Launch(app, params).ok());
  EXPECT_EQ(a.srm().GrantSharedGroups(app, group, 1, ck::GroupAccess::kReadWrite),
            CkStatus::kOk);
  ck::CkApi api(a.ck(), app.self(), a.machine().cpu(0));

  uint32_t sp0 = app.CreateSpace(api);
  uint32_t sp1 = app.CreateSpace(api);
  app.DefineZeroRegion(sp0, 0x40000000, 4, /*writable=*/true);
  for (uint32_t p = 0; p < 3; ++p) {
    uint32_t value = 0xf0220000u + p;
    EXPECT_TRUE(app.WriteGuest(api, sp0, 0x40000000 + p * cksim::kPageSize, &value, 4));
  }
  // Page 2 goes out to swap (a backing page allocated from the top).
  app.EvictPage(api, sp0, 0x40000000 + 2 * cksim::kPageSize);

  std::vector<uint8_t> data(cksim::kPageSize);
  for (uint32_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  app.backing().WriteBytes(20, 0, data.data(), static_cast<uint32_t>(data.size()));
  app.backing().WriteBytes(21, 0, data.data(), static_cast<uint32_t>(data.size()));
  app.DefineBackedRegion(sp0, 0x41000000, 2, 20, /*writable=*/true);
  uint32_t probe = 0;
  EXPECT_TRUE(app.ReadGuest(api, sp0, 0x41000000, &probe, 4));

  app.DefineZeroRegion(sp0, 0x70000000, 2, /*writable=*/true);  // stacks
  ckisa::Program worker = MustAssemble(kWorkerSrc, 0x10000);
  ckisa::Program finisher = MustAssemble(kFinisherSrc, 0x14000);
  app.LoadProgramImage(sp0, worker, /*writable=*/false);
  app.LoadProgramImage(sp0, finisher, /*writable=*/false);
  ckapp::GuestThreadParams worker_params;
  worker_params.space_index = sp0;
  worker_params.entry = worker.base;
  worker_params.stack_top = 0x70001000;
  uint32_t worker_index = app.CreateGuestThread(api, worker_params);
  ckapp::GuestThreadParams fin_params;
  fin_params.space_index = sp0;
  fin_params.entry = finisher.base;
  fin_params.stack_top = 0x70002000;
  uint32_t fin_index = app.CreateGuestThread(api, fin_params);

  app.DefineFrameRegion(sp1, 0x50000000, 1, fixed, /*writable=*/true, /*message=*/true,
                        /*signal_thread=*/worker_index);
  const char payload[] = "fuzzed channel";
  EXPECT_EQ(api.WritePhys(fixed, payload, sizeof(payload)), CkStatus::kOk);
  cksim::PhysAddr template_frame = fixed + cksim::kPageSize;
  EXPECT_EQ(api.WritePhys(template_frame, payload, sizeof(payload)), CkStatus::kOk);
  app.DefineCowRegion(sp0, 0x60000000, 2, template_frame);
  uint32_t cow_touch = 0x5a5a5a5a;
  EXPECT_TRUE(app.WriteGuest(api, sp0, 0x60000000 + 64, &cow_touch, 4));

  EXPECT_TRUE(a.RunUntil([&] { return app.thread(fin_index).finished; }));
  a.RunUntil([] { return false; }, 5000);

  CkptImage image;
  EXPECT_EQ(a.srm().Checkpoint(app, &image), CkStatus::kOk);
  return image.Serialize();
}

// Offsets of every record's u32 length field in a well-formed image.
std::vector<size_t> LengthFieldOffsets(const std::vector<uint8_t>& bytes) {
  std::vector<size_t> out;
  ckckpt::Reader r(bytes);
  r.U32();
  r.U32();
  uint32_t count = r.U32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    size_t at = bytes.size() - r.remaining();
    r.U16();
    r.U16();
    uint32_t length = r.U32();
    out.push_back(at + 4);
    r.Span(static_cast<size_t>(length) + 4);
  }
  return out;
}

void PutU32(std::vector<uint8_t>& bytes, size_t at, uint32_t value) {
  for (uint32_t i = 0; i < 4 && at + i < bytes.size(); ++i) {
    bytes[at + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

uint32_t InterestingU32(ckbase::Rng& rng, uint32_t old_value) {
  switch (rng.Below(6)) {
    case 0:
      return 0;
    case 1:
      return 0xffffffffu;
    case 2:
      return old_value + static_cast<uint32_t>(rng.Range(1, 8));
    case 3:
      return old_value - static_cast<uint32_t>(rng.Range(1, 8));
    case 4:
      return 1u << rng.Below(32);
    default:
      return static_cast<uint32_t>(rng.Next());
  }
}

// Record-level edits: the result is re-serialized, so every CRC is valid and
// the input reaches Restore.
void MutateRecords(ckbase::Rng& rng, std::vector<CkptRecord>& records) {
  if (records.empty()) {
    return;
  }
  size_t i = rng.Below(records.size());
  switch (rng.Below(6)) {
    case 0:  // duplicate
      records.insert(records.begin() + static_cast<long>(rng.Below(records.size() + 1)),
                     records[i]);
      break;
    case 1:  // drop
      records.erase(records.begin() + static_cast<long>(i));
      break;
    case 2:  // reorder
      std::swap(records[i], records[rng.Below(records.size())]);
      break;
    case 3: {  // rewrite payload bytes
      std::vector<uint8_t>& p = records[i].payload;
      for (uint64_t n = rng.Range(1, 4); n > 0 && !p.empty(); --n) {
        p[rng.Below(p.size())] ^= static_cast<uint8_t>(rng.Range(1, 255));
      }
      break;
    }
    case 4: {  // rewrite one u32 field in place (counts, indices, addresses)
      std::vector<uint8_t>& p = records[i].payload;
      if (p.size() >= 4) {
        size_t at = rng.Below(p.size() - 3);
        uint32_t old_value = 0;
        std::memcpy(&old_value, p.data() + at, 4);
        PutU32(p, at, InterestingU32(rng, old_value));
      }
      break;
    }
    default: {  // resize payload
      std::vector<uint8_t>& p = records[i].payload;
      p.resize(rng.Chance(1, 2) ? rng.Below(p.size() + 1) : p.size() + rng.Range(1, 16), 0xa5);
      break;
    }
  }
}

// Byte-level edits of the serialized form (mostly caught by framing/CRC).
void MutateBytes(ckbase::Rng& rng, std::vector<uint8_t>& bytes) {
  if (bytes.empty()) {
    return;
  }
  switch (rng.Below(4)) {
    case 0:  // flip bytes
      for (uint64_t n = rng.Range(1, 4); n > 0; --n) {
        bytes[rng.Below(bytes.size())] ^= static_cast<uint8_t>(rng.Range(1, 255));
      }
      break;
    case 1:  // truncate
      bytes.resize(rng.Below(bytes.size()));
      break;
    case 2: {  // edit a record length field
      std::vector<size_t> fields = LengthFieldOffsets(bytes);
      if (!fields.empty()) {
        size_t at = fields[rng.Below(fields.size())];
        uint32_t old_value = 0;
        std::memcpy(&old_value, bytes.data() + at, 4);
        PutU32(bytes, at, InterestingU32(rng, old_value));
      }
      break;
    }
    default:  // edit the record count
      if (bytes.size() >= 12) {
        uint32_t old_value = 0;
        std::memcpy(&old_value, bytes.data() + 8, 4);
        PutU32(bytes, 8, InterestingU32(rng, old_value));
      }
      break;
  }
}

std::vector<uint8_t> Mutate(const std::vector<uint8_t>& base, uint64_t seed) {
  ckbase::Rng rng(seed);
  CkptImage image;
  std::string error;
  EXPECT_TRUE(CkptImage::Parse(base, &image, &error)) << error;
  std::vector<CkptRecord> records = image.records();
  // Three in four inputs carry record-level edits with valid CRCs; the rest
  // are raw byte edits of the serialized form.
  bool record_level = !rng.Chance(1, 4);
  if (record_level) {
    for (uint64_t n = rng.Range(1, 3); n > 0; --n) {
      MutateRecords(rng, records);
    }
    CkptImage mutated;
    for (CkptRecord& rec : records) {
      mutated.Append(rec.type, std::move(rec.payload));
    }
    return mutated.Serialize();
  }
  std::vector<uint8_t> bytes = base;
  for (uint64_t n = rng.Range(1, 2); n > 0; --n) {
    MutateBytes(rng, bytes);
  }
  return bytes;
}

struct Outcome {
  bool parsed = false;
  bool restored = false;
};

// Parse + Restore one input on a fresh target; assert the contract.
Outcome RunInput(const std::vector<uint8_t>& bytes, cksim::PhysAddr channel, uint64_t seed) {
  Outcome outcome;
  CkptImage image;
  std::string error;
  outcome.parsed = CkptImage::Parse(bytes, &image, &error);
  if (!outcome.parsed) {
    EXPECT_TRUE(image.records().empty()) << "seed " << seed << ": Parse mutated its output";
    EXPECT_FALSE(error.empty()) << "seed " << seed;
    return outcome;  // never reaches a target: nothing can be loaded
  }

  // The channel region lands one group higher on the target, as in a real
  // migration; the restore translates it through a remap.
  TestWorld b;
  EXPECT_TRUE(b.srm().ReserveGroups(1).ok());
  cksim::PhysAddr fixed = b.srm().ReserveGroups(1).value() * cksim::kPageGroupBytes;
  ckapp::AppKernelBase app("fuzz", 64);
  RestoreOptions options;
  options.frame_remaps.push_back(FrameRemap{channel, fixed, 2});
  CkStatus status = b.srm().Restore(app, image, options, &error);
  if (status != CkStatus::kOk) {
    std::array<uint32_t, ck::kObjectTypeCount> loaded = b.ck().LoadedCountsFor(app.self());
    for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
      EXPECT_EQ(loaded[t], 0u) << "seed " << seed << ": rejected restore (" << error
                               << ") left object type " << t << " loaded";
    }
    EXPECT_TRUE(b.ck().ValidateInvariants().empty()) << "seed " << seed;
    return outcome;
  }
  outcome.restored = true;
  EXPECT_TRUE(b.ck().ValidateInvariants().empty()) << "seed " << seed << " after restore";

  // A clean restore is a usable kernel: dirty every page it describes (page
  // in from the backing store, copy deferred sources, map fixed frames) and
  // page it out again (swap allocation, page-out), then let its threads run.
  ck::CkApi api(b.ck(), app.self(), b.machine().cpu(0));
  for (uint32_t s = 0; s < app.space_count(); ++s) {
    std::vector<cksim::VirtAddr> pages;
    for (const auto& [vaddr, page] : app.space(s).pages) {
      pages.push_back(vaddr);
    }
    for (cksim::VirtAddr vaddr : pages) {
      uint32_t word = 0;
      if (app.ReadGuest(api, s, vaddr, &word, sizeof(word))) {
        app.WriteGuest(api, s, vaddr, &word, sizeof(word));
      }
      app.EvictPage(api, s, vaddr);
    }
  }
  b.RunUntil([] { return false; }, 3000);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty()) << "seed " << seed << " after running";
  return outcome;
}

class CkptFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { base_ = new std::vector<uint8_t>(RichImage(&channel_)); }
  static void TearDownTestSuite() {
    delete base_;
    base_ = nullptr;
  }

  static std::vector<uint8_t>* base_;
  static cksim::PhysAddr channel_;
};

std::vector<uint8_t>* CkptFuzz::base_ = nullptr;
cksim::PhysAddr CkptFuzz::channel_ = 0;

TEST_F(CkptFuzz, UnmutatedImageRestoresCleanly) {
  Outcome outcome = RunInput(*base_, channel_, 0);
  EXPECT_TRUE(outcome.parsed);
  EXPECT_TRUE(outcome.restored);
}

TEST_F(CkptFuzz, RegressionSeeds) {
  for (uint64_t seed : kRegressionSeeds) {
    RunInput(Mutate(*base_, seed), channel_, seed);
  }
}

// A rejected restore retires the registration its relaunch made: repeated
// rejections on one SRM leak no page groups, leave nothing loaded, and no
// stale entry answers for a later kernel at the same address.
TEST_F(CkptFuzz, RejectedRestoresReturnTheirGrants) {
  CkptImage base;
  std::string error;
  ASSERT_TRUE(CkptImage::Parse(*base_, &base, &error)) << error;
  CkptImage broken;
  for (const CkptRecord& rec : base.records()) {
    if (rec.type != RecordType::kBackingMeta) {
      broken.Append(rec.type, rec.payload);
    }
  }

  TestWorld b;
  EXPECT_TRUE(b.srm().ReserveGroups(1).ok());
  cksim::PhysAddr fixed = b.srm().ReserveGroups(1).value() * cksim::kPageGroupBytes;
  RestoreOptions options;
  options.frame_remaps.push_back(FrameRemap{channel_, fixed, 2});
  uint32_t free_before = b.srm().free_groups();
  for (int attempt = 0; attempt < 4; ++attempt) {
    ckapp::AppKernelBase app("fuzz", 64);
    EXPECT_NE(b.srm().Restore(app, broken, options, &error), CkStatus::kOk);
    EXPECT_EQ(b.srm().free_groups(), free_before) << "attempt " << attempt;
    EXPECT_FALSE(b.srm().IsSwappedOut(app)) << "attempt " << attempt << ": entry left behind";
    std::array<uint32_t, ck::kObjectTypeCount> loaded = b.ck().LoadedCountsFor(app.self());
    for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
      EXPECT_EQ(loaded[t], 0u) << "attempt " << attempt << ", object type " << t;
    }
    EXPECT_TRUE(b.ck().ValidateInvariants().empty());
  }

  ckapp::AppKernelBase app("fuzz", 64);
  ASSERT_EQ(b.srm().Restore(app, base, options, &error), CkStatus::kOk) << error;
  EXPECT_LT(b.srm().free_groups(), free_before);
  EXPECT_TRUE(b.ck().ValidateInvariants().empty());
}

TEST_F(CkptFuzz, SweepRejectsOrRestoresCleanly) {
  uint32_t parsed = 0;
  uint32_t restored = 0;
  for (uint32_t i = 0; i < kSweepInputs; ++i) {
    uint64_t seed = kSweepSeed + i;
    Outcome outcome = RunInput(Mutate(*base_, seed), channel_, seed);
    parsed += outcome.parsed ? 1 : 0;
    restored += outcome.restored ? 1 : 0;
    if (HasFailure()) {
      FAIL() << "first failing input: seed " << seed;
    }
  }
  // The sweep must reach every stage: framing rejections, semantic
  // rejections in Restore, and clean restores of mutated images.
  std::printf("ckpt fuzz: %u inputs, %u parsed, %u restored\n", kSweepInputs, parsed, restored);
  EXPECT_LT(parsed, kSweepInputs);
  EXPECT_LT(restored, parsed);
  EXPECT_GT(restored, 0u);
}

}  // namespace
