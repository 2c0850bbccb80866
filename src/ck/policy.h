// Replacement-policy engine types (docs/POLICY_VM.md).
//
// The paper's thesis is that policy lives in application kernels while the
// Cache Kernel caches mechanism. The Cache Kernel's only built-in victim
// policy is the clock scan; this header holds the policies an application
// kernel chooses for its own descriptors:
//
//   * VictimFeatures is the fixed per-candidate feature vector every scoring
//     policy sees -- and, laid out as 8 little-endian u32 words, the exact
//     read-only memory window a guest policy program reads.
//   * Perceptron is the built-in learned policy (per LearnedCache): an
//     integer perceptron over the candidate features, trained online by a
//     ghost cache of recent evictions -- evict something that gets reloaded
//     soon and the weights move toward "keep" for that feature pattern;
//     ghost entries that age out unreferenced confirm the eviction and move
//     them toward "evict". Everything is fixed-point and deterministic, so
//     weights checkpoint/migrate bit-exactly.
//   * PolicyTable is the per-application-kernel policy state: one optional
//     guest policy program (CKVM words, run sandboxed -- src/isa/sandbox.h)
//     and one perceptron per descriptor-cache type. It lives in the app
//     kernel (AppKernel::policy_table), is installed through the LoadPolicy
//     Cache Kernel operation, and rides CaptureExtra/RestoreExtra through
//     checkpoint, migration and failover.
//
// The scan machinery that consumes these lives in src/ck/object_cache.h
// (ReclaimScored) and CacheKernel::ReclaimVictim.

#ifndef SRC_CK_POLICY_H_
#define SRC_CK_POLICY_H_

#include <cstdint>
#include <vector>

#include "src/ck/objects.h"

namespace ck {

// Per-candidate features, in guest window order (docs/POLICY_VM.md). The
// guest policy VM maps exactly these 8 words read-only at kPolicyFeatureBase;
// a program can address nothing else, which is what confines it to scoring
// the descriptors the Cache Kernel chooses to show it.
struct VictimFeatures {
  uint32_t slot = 0;           // word 0: candidate slot / record index
  uint32_t age = 0;            // word 1: load_clock - load_seq, saturated
  uint32_t hw_ref = 0;         // word 2: hardware referenced bit (peeked)
  uint32_t soft_ref = 0;       // word 3: loaded -- always 1 for a candidate
  uint32_t load_seq_low = 0;   // word 4: low 32 bits of the load stamp
  uint32_t state_class = 0;    // word 5: per-type state (threads: 0 blocked,
                               //         1 ready/halted, 2 running)
  uint32_t owner_is_self = 0;  // word 6: owned by the reclaiming kernel
  uint32_t object_type = 0;    // word 7: ck::ObjectType of the scan
};

inline constexpr uint32_t kPolicyFeatureWords = 8;

// Guest policy program contract (docs/POLICY_VM.md): code is mapped at
// kPolicyCodeBase, the feature window at kPolicyFeatureBase; the program
// computes a score into a0 and executes halt. Lower score = better victim.
inline constexpr uint32_t kPolicyCodeBase = 0x00000000u;
inline constexpr uint32_t kPolicyFeatureBase = 0x00001000u;
inline constexpr uint32_t kMaxPolicyProgramWords = 256;

// Why a guest-policy scan abandoned its program and fell back to clock.
// Values appear as the arg32 of kPolicyFallback trace events.
enum class PolicyFallback : uint8_t {
  kFault = 1,        // program faulted (bad access, trap) in the sandbox
  kBudget = 2,       // per-scan step budget exhausted
  kNoCandidate = 3,  // no unpinned candidate owned by the requester
};

// Ghost-cache-trained integer perceptron (LearnedCache's idea, sized for
// descriptor caches). Score(f) predicts "keep-worthiness": the scored scan
// evicts the minimum. The owning app kernel turns it on per descriptor type
// by setting `enabled` in its own PolicyTable. Everything else is POD-ish
// and serialized field by field, so checkpoints and migration carry it
// bit-exactly.
struct Perceptron {
  static constexpr uint32_t kFeatureCount = 4;  // bias, hw_ref, soft_ref, age
  static constexpr uint32_t kGhostSlots = 128;
  static constexpr int32_t kWeightClamp = 1 << 20;
  static constexpr int32_t kLearnKeep = 8;   // ghost hit: eviction was wrong
  static constexpr int32_t kLearnEvict = 1;  // unhit ghost aged out: confirmed
  // Referenced bits are harvested (cleared) this many slots per scan behind
  // harvest_hand, so a bit lives roughly capacity/kHarvestPerScan scans --
  // the same lazy decay that gives the clock hand its recency signal. A
  // full-sweep clear every scan would leave nothing set under pressure.
  static constexpr uint32_t kHarvestPerScan = 2;

  struct Ghost {
    uint64_t key = 0;
    int32_t x[kFeatureCount] = {0};
    uint8_t valid = 0;
  };

  // Clock-like prior: referenced candidates score high (kept), age drags a
  // candidate down. This is what makes the untrained perceptron already beat
  // FIFO on skewed traces; training refines it.
  int32_t w[kFeatureCount] = {0, 256, 128, -16};
  // Score this kernel's victims with the perceptron. The owner's choice, not
  // machine state: it is neither checkpointed nor part of Digest().
  bool enabled = false;
  std::vector<Ghost> ghost = std::vector<Ghost>(kGhostSlots);
  uint64_t ghost_hits = 0;
  uint64_t trains = 0;
  uint32_t harvest_hand = 0;  // next slot whose referenced bit gets cleared

  static void Featurize(const VictimFeatures& f, int32_t x[kFeatureCount]);
  int64_t Score(const VictimFeatures& f) const;
  // Victim evicted: remember its key + features. An overwritten entry that
  // was never rehit is a confirmed eviction (train toward evict).
  void NoteEvict(uint64_t key, const VictimFeatures& f);
  // Object (re)loaded: a ghost hit means the eviction was premature (train
  // toward keep). Returns whether the key was present.
  bool NoteLoad(uint64_t key);
  uint64_t Digest() const;

 private:
  uint32_t GhostIndex(uint64_t key) const;
  void Train(const int32_t x[kFeatureCount], int32_t rate);
};

// One app kernel's loaded guest policy program for one descriptor type.
struct GuestPolicy {
  bool enabled = false;
  std::vector<uint32_t> words;  // CKVM instructions at kPolicyCodeBase
};

// Per-application-kernel policy state (see file header). Owned by the app
// kernel; the Cache Kernel reaches it through AppKernel::policy_table() at
// reclaim time and never retains a pointer across calls.
struct PolicyTable {
  GuestPolicy guest[kObjectTypeCount];
  Perceptron perceptron[kObjectTypeCount];

  // Deterministic digest over every weight, ghost entry and program word;
  // checkpoint/migration tests compare it across round trips.
  uint64_t Digest() const;
};

}  // namespace ck

#endif  // SRC_CK_POLICY_H_
