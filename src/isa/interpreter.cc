#include "src/isa/interpreter.h"

#include <algorithm>
#include <cstring>

#include "src/isa/fastpath.h"
#include "src/sim/cpu.h"
#include "src/sim/pagetable.h"

namespace ckisa {
namespace {

// Outcome of a superblock-trace execution attempt at the current pc.
enum class TraceOutcome : uint8_t {
  kNone,      // no usable trace; single-step this instruction
  kAdvanced,  // executed >= 1 step; ctx.pc and the instruction count advanced
  kDeferred,  // executed the steps before ctx.pc (maybe none); single-step
              // ctx.pc, then dispatch again at its successor
};

// Slow policy: every access goes through the virtual GuestBus and charges the
// CPU clock immediately. This is exactly the pre-fast-path interpreter and
// the reference behavior the differential tests compare against
// (--fastpath=off selects it).
struct SlowPolicy {
  GuestBus& bus;

  bool FetchDecoded(uint32_t pc, Decoded& d, GuestBus::MemResult& fail) {
    GuestBus::MemResult fetch = bus.Fetch(pc);
    if (!fetch.ok) {
      fail = fetch;
      return false;
    }
    d = Decode(fetch.value);
    return true;
  }
  GuestBus::MemResult Load(uint32_t vaddr, uint32_t bytes) { return bus.Load(vaddr, bytes); }
  GuestBus::MemResult Store(uint32_t vaddr, uint32_t value, uint32_t bytes) {
    return bus.Store(vaddr, value, bytes);
  }
  void ChargeInstruction() { bus.ChargeInstruction(); }
  void OnMessageWrite(uint32_t vaddr) { bus.OnMessageWrite(vaddr); }
  // The slow path charges cycles immediately, so run-loop exits have nothing
  // to flush and take no profiler samples either: keeping this a no-op keeps
  // the reference interpreter at exactly zero profiling overhead.
  void FlushAt(uint32_t /*pc*/) {}
  // Superblock traces are a fast-path-only acceleration.
  TraceOutcome TryTrace(VmContext& /*ctx*/, uint32_t /*budget*/, uint32_t& /*n*/) {
    return TraceOutcome::kNone;
  }
};

// Fast policy: accesses whose translation hits the micro-TLB (and whose
// target frame is local and needs no PTE side effects) are served straight
// from host memory, with their cycle charges accumulated in `acc` and flushed
// to Cpu::Advance in batches. Anything unusual falls back to the virtual bus.
//
// Cycle-exactness rules (see docs/PERFORMANCE.md):
//  * A fast hit performs exactly the simulated-state updates the slow path
//    would: Tlb::TouchFastHit mirrors the Lookup hit bookkeeping (LRU age,
//    hit counter), and the charges added to `acc` are the same tlb_hit /
//    mem_word / instruction costs the bus would have charged.
//  * `acc` is flushed before ANY virtual bus call, so every point that can
//    observe the CPU clock (signal delivery, trace stamping inside the MMU,
//    run termination) sees the fully charged clock.
//  * The precondition checks commit no state: only when an access is known
//    to stay on the fast path does it touch the TLB or the accumulator, so a
//    fallback replays through the bus exactly once.
struct FastPolicy {
  SlowPolicy slow;  // every fallback: the virtual bus
  FastPath& fp;
  cksim::Cycles acc = 0;

  void Flush() {
    if (acc != 0) {
      fp.cpu->Advance(acc);
      acc = 0;
    }
  }

  // Run-loop exit flush: also the profiler's sampling point. The clock is
  // fully charged after Flush(), so the sample timestamp compare is exact;
  // the whole addition is one branch on an already-cold edge.
  void FlushAt(uint32_t pc) {
    Flush();
    if (fp.sampler != nullptr) {
      fp.sampler->MaybeSample(fp.cpu->clock(), pc);
    }
  }

  // Translate `vaddr` for `kind` via the micro-TLB without falling back.
  // On success commits the TLB hit (LRU + counter) and the access's tlb_hit +
  // mem_word charges, and returns the physical address and the live PTE
  // flags. Fails -- with no simulated side effects -- whenever the slow path
  // would do anything beyond "hit, charge, access": TLB miss, fault, remote
  // frame, first write / COW / read-only write.
  bool TryTranslate(cksim::Access kind, uint32_t vaddr, uint32_t* paddr, uint8_t* flags) {
    uint32_t vpage = vaddr >> cksim::kPageShift;
    const MicroTlbEntry& hint = fp.mtlb->At(kind, vpage);
    if (hint.vpage != vpage || hint.asid != fp.asid) {
      return false;
    }
    const cksim::TlbEntry& t = fp.tlb->EntryAt(hint.tlb_index);
    // Re-validate against the live TLB entry: flushes and LRU evictions make
    // this compare fail, which is how micro-TLB invalidation works.
    if (!t.valid || t.asid != fp.asid || t.vpage != vpage) {
      return false;
    }
    if (kind == cksim::Access::kWrite) {
      // The slow path write also checks COW, write protection and the
      // modified bit (with a PTE write-through on first store). Require the
      // exact flag state where it does none of that.
      constexpr uint8_t kWriteMask =
          cksim::kPteWritable | cksim::kPteModified | cksim::kPteCopyOnWrite;
      constexpr uint8_t kWriteReady = cksim::kPteWritable | cksim::kPteModified;
      if ((t.flags & kWriteMask) != kWriteReady) {
        return false;
      }
    }
    if (t.pframe >= fp.frame_count || fp.remote_frame_bits[t.pframe] != 0) {
      return false;  // consistency fault territory: let the bus handle it
    }
    // Committed: from here the access completes on the fast path.
    fp.tlb->TouchFastHit(hint.tlb_index);
    acc += fp.cost_tlb_hit + fp.cost_mem_word;
    *paddr = cksim::FrameBase(t.pframe) | (vaddr & cksim::kPageOffsetMask);
    *flags = t.flags;
    return true;
  }

  bool FetchDecoded(uint32_t pc, Decoded& d, GuestBus::MemResult& fail) {
    uint32_t paddr;
    uint8_t flags;
    if ((pc & 3u) == 0 && TryTranslate(cksim::Access::kExecute, pc, &paddr, &flags)) {
      const DecodedPage* page = fp.exec_cache->Get(paddr >> cksim::kPageShift);
      d = page->insns[(paddr & cksim::kPageOffsetMask) >> 2];
      return true;
    }
    Flush();
    return slow.FetchDecoded(pc, d, fail);
  }

  // The run loop already rejected misaligned word accesses.
  GuestBus::MemResult Load(uint32_t vaddr, uint32_t bytes) {
    uint32_t paddr;
    uint8_t flags;
    if (!TryTranslate(cksim::Access::kRead, vaddr, &paddr, &flags)) {
      Flush();
      return slow.Load(vaddr, bytes);
    }
    GuestBus::MemResult m;
    m.ok = true;
    if (bytes == 4) {
      std::memcpy(&m.value, fp.mem->raw() + paddr, 4);
    } else {
      m.value = fp.mem->raw()[paddr];
    }
    return m;
  }

  GuestBus::MemResult Store(uint32_t vaddr, uint32_t value, uint32_t bytes) {
    uint32_t paddr;
    uint8_t flags;
    if (!TryTranslate(cksim::Access::kWrite, vaddr, &paddr, &flags)) {
      Flush();
      return slow.Store(vaddr, value, bytes);
    }
    if (bytes == 4) {
      std::memcpy(fp.mem->raw() + paddr, &value, 4);
    } else {
      fp.mem->raw()[paddr] = static_cast<uint8_t>(value);
    }
    fp.mem->BumpFrameGeneration(paddr);  // keep the decoded cache honest
    GuestBus::MemResult m;
    m.ok = true;
    m.message_write = (flags & cksim::kPteMessage) != 0;
    return m;
  }

  void ChargeInstruction() { acc += fp.cost_instruction; }

  void OnMessageWrite(uint32_t vaddr) {
    // Signal delivery stamps the CPU clock; it must see all batched charges.
    Flush();
    slow.OnMessageWrite(vaddr);
  }

  // ---- superblock trace execution ----
  //
  // Entry protocol: look up a trace at (asid, pc); validate every recorded
  // page against the live TLB (side-effect-free Probe) and its recorded
  // frame generation; rebuild on generation/frame mismatch (= the trace was
  // invalidated by a store or remap); run it. Counters are staged into
  // fp.trace_stats and folded into CkStats/tenant accounts at quantum commit.
  TraceOutcome TryTrace(VmContext& ctx, uint32_t budget, uint32_t& n) {
    if (fp.tcache == nullptr || (ctx.pc & 3u) != 0) {
      return TraceOutcome::kNone;
    }
    uint16_t fetch_idx[Trace::kMaxPages];
    Trace* t = fp.tcache->Lookup(fp.asid, ctx.pc);
    if (t != nullptr) {
      bool stale = false;
      bool cold = false;
      for (uint32_t p = 0; p < t->page_count; ++p) {
        int32_t idx = fp.tlb->Probe(fp.asid, t->pages[p].vpage);
        if (idx < 0) {
          cold = true;  // page no longer TLB-resident: not entryable, not stale
          break;
        }
        const cksim::TlbEntry& e = fp.tlb->EntryAt(static_cast<uint32_t>(idx));
        if (e.pframe != t->pages[p].pframe ||
            fp.mem->frame_generation(e.pframe) != t->pages[p].generation) {
          stale = true;  // self-modifying code or remap: decoded steps invalid
          break;
        }
        if (fp.remote_frame_bits[e.pframe] != 0) {
          cold = true;  // consistency-fault territory: leave it to the bus
          break;
        }
        fetch_idx[p] = static_cast<uint16_t>(idx);
      }
      if (cold) {
        ++fp.trace_stats->misses;
        return TraceOutcome::kNone;
      }
      if (stale) {
        ++fp.trace_stats->invalidations;
        t = nullptr;
      } else {
        ++fp.trace_stats->hits;
      }
    } else {
      ++fp.trace_stats->misses;
    }
    if (t == nullptr) {
      Trace& slot = fp.tcache->SlotFor(fp.asid, ctx.pc);
      if (BuildTrace(fp, fp.asid, ctx.pc, slot) == 0) {
        return TraceOutcome::kNone;
      }
      ++fp.trace_stats->builds;
      t = &slot;
      for (uint32_t p = 0; p < t->page_count; ++p) {
        int32_t idx = fp.tlb->Probe(fp.asid, t->pages[p].vpage);
        if (idx < 0) {
          return TraceOutcome::kNone;  // cannot happen: built from live TLB
        }
        fetch_idx[p] = static_cast<uint16_t>(idx);
      }
    }
    return ExecuteTrace(ctx, *t, fetch_idx, budget, n);
  }

  // Runs the trace's pure-fast steps: ALU ops, taken-as-predicted branches,
  // jal, and loads/stores that hit the micro-TLB with no side effect beyond
  // "TLB hit, charge, access". It never calls the bus and never ends the
  // run. At the first step that cannot finish that way it commits the steps
  // before it and returns kDeferred with ctx.pc at that step, which the run
  // loop then single-steps.
  TraceOutcome ExecuteTrace(VmContext& ctx, const Trace& t, const uint16_t* fetch_idx,
                            uint32_t budget, uint32_t& n) {
    const uint32_t limit = std::min<uint32_t>(t.step_count, budget - n);
    const uint64_t tick_base = fp.tlb->tick();
    uint32_t* r = ctx.regs;
    r[0] = 0;  // the single-step loop clears r0 before every op; see below

    // Per-execution data-translation cache. The executor never calls the
    // bus, so no TLB entry can be inserted, evicted or flushed while it
    // runs: a translation validated once stays valid for this execution.
    constexpr uint32_t kDc = 8;
    uint32_t dc_vpage[kDc];
    uint32_t dc_pbase[kDc];
    uint16_t dc_idx[kDc];
    bool dc_writable[kDc];
    for (uint32_t i = 0; i < kDc; ++i) {
      dc_vpage[i] = 0xffffffffu;
    }

    // Commit the batched TLB bookkeeping and cycle charges of steps
    // 0..done-1 (`done` also selects the last-fetch table row).
    //
    // A touch-by-touch run leaves each entry's lru at the tick of its LAST
    // touch. Data touches write their lru immediately in dtranslate (per
    // entry they arrive in ascending ordinal order, so last-write-wins gives
    // exactly that); here the fetch pages fold in with a max against any
    // later data touch of the same entry. Every pre-existing lru is
    // <= tick_base, so the max never resurrects stale recency.
    auto commit = [&](uint32_t done) {
      for (uint32_t p = 0; p < t.page_count; ++p) {
        uint8_t j = t.last_fetch[done][p];
        if (j != Trace::kNoFetch) {
          uint64_t v = tick_base + t.touch_prefix[j] + 1;
          const cksim::TlbEntry& e = fp.tlb->EntryAt(fetch_idx[p]);
          fp.tlb->SetLruAt(fetch_idx[p], e.lru > v ? e.lru : v);
        }
      }
      fp.tlb->CommitFastHits(t.touch_prefix[done]);
      acc += t.acc_prefix[done];
    };

    // Translate a data access of step `si`, logging its TLB touch. Serving
    // rules are the single-access TryTranslate preconditions; a store must
    // also avoid message pages (signal delivery) and the trace's own frames
    // (the remaining decoded steps could go stale). A miss commits nothing:
    // the step is deferred to the single-step loop.
    auto dtranslate = [&](cksim::Access kind, uint32_t addr, uint32_t si,
                          uint32_t* paddr) -> bool {
      uint32_t vpage = addr >> cksim::kPageShift;
      uint32_t h = vpage & (kDc - 1);
      if (dc_vpage[h] != vpage) {
        const MicroTlbEntry& hint = fp.mtlb->At(kind, vpage);
        if (hint.vpage != vpage || hint.asid != fp.asid) {
          return false;
        }
        const cksim::TlbEntry& e = fp.tlb->EntryAt(hint.tlb_index);
        if (!e.valid || e.asid != fp.asid || e.vpage != vpage) {
          return false;
        }
        if (e.pframe >= fp.frame_count || fp.remote_frame_bits[e.pframe] != 0) {
          return false;
        }
        bool own_page = false;
        for (uint32_t p = 0; p < t.page_count; ++p) {
          own_page = own_page || t.pages[p].pframe == e.pframe;
        }
        constexpr uint8_t kWriteMask = cksim::kPteWritable | cksim::kPteModified |
                                       cksim::kPteCopyOnWrite | cksim::kPteMessage;
        constexpr uint8_t kWriteReady = cksim::kPteWritable | cksim::kPteModified;
        dc_vpage[h] = vpage;
        dc_pbase[h] = cksim::FrameBase(e.pframe);
        dc_idx[h] = hint.tlb_index;
        dc_writable[h] = (e.flags & kWriteMask) == kWriteReady && !own_page;
      }
      if (kind == cksim::Access::kWrite && !dc_writable[h]) {
        return false;
      }
      *paddr = dc_pbase[h] | (addr & cksim::kPageOffsetMask);
      // Immediate lru write: per entry these arrive in ascending ordinal
      // order, so the final value is the last touch, as in a step-by-step
      // run. Fetch-page ordinals fold in at commit (see `commit` above).
      fp.tlb->SetLruAt(dc_idx[h], tick_base + t.touch_prefix[si] + 2);
      return true;
    };

    // Threaded dispatch (computed goto): every handler ends with its own
    // indirect jump to the next step's handler, so each op->op edge in the
    // trace gets its own branch-prediction site. A central switch would make
    // one indirect branch carry the whole opcode sequence, which mispredicts
    // far more -- dispatch cost is most of a trace step.
#define CK_TARGET(Name, ...) &&h_##Name,
    static_assert(kOpCount == 32, "the dispatch table below pads 32 defined opcodes to 64");
    static const void* const kOpTargets[64] = {
        CKVM_OPS(CK_TARGET)  // opcodes 0..31, in order
        &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad,
        &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad,
        &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad,
        &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad, &&h_bad};
#undef CK_TARGET

#define CK_DISPATCH() goto* kOpTargets[static_cast<uint8_t>(sp->d.op)]
#define CK_NEXT()                                  \
  do {                                             \
    if ((sp->flags & TraceStep::kWritesR0) != 0) { \
      r[0] = 0;                                    \
    }                                              \
    if (++si >= limit) {                           \
      goto trace_end;                              \
    }                                              \
    ++sp;                                          \
    CK_DISPATCH();                                 \
  } while (0)

    uint32_t si = 0;
    const TraceStep* sp = &t.steps[0];
    CK_DISPATCH();

#define CK_ALU_HANDLER(Name, value, mnemonic, format, cls, expr) \
  h_##Name : {                                                   \
    const Decoded& d = sp->d;                                    \
    r[d.rd] = (expr);                                            \
    CK_NEXT();                                                   \
  }
    CKVM_ALU_OPS(CK_ALU_HANDLER)
#undef CK_ALU_HANDLER

    // A branch whose build-time prediction holds continues at the next
    // step, which the build placed on the predicted path.
#define CK_BRANCH_HANDLER(Name, value, mnemonic, format, cls, expr)  \
  h_##Name : {                                                       \
    const Decoded& d = sp->d;                                        \
    if ((expr) != ((sp->flags & TraceStep::kPredictedTaken) != 0)) { \
      goto branch_mispredict;                                        \
    }                                                                \
    CK_NEXT();                                                       \
  }
    CKVM_BRANCH_OPS(CK_BRANCH_HANDLER)
#undef CK_BRANCH_HANDLER

  h_Nop:
    CK_NEXT();

  h_Lw: {
    const Decoded& d = sp->d;
    uint32_t addr = Rs1PlusImm(r, d);
    uint32_t paddr;
    if ((addr & 3u) == 0 && dtranslate(cksim::Access::kRead, addr, si, &paddr)) {
      std::memcpy(&r[d.rd], fp.mem->raw() + paddr, 4);
      CK_NEXT();
    }
    goto defer;
  }
  h_Lb: {
    const Decoded& d = sp->d;
    uint32_t addr = Rs1PlusImm(r, d);
    uint32_t paddr;
    if (dtranslate(cksim::Access::kRead, addr, si, &paddr)) {
      r[d.rd] = fp.mem->raw()[paddr];
      CK_NEXT();
    }
    goto defer;
  }
  h_Sw: {
    const Decoded& d = sp->d;
    uint32_t addr = Rs1PlusImm(r, d);
    uint32_t paddr;
    if ((addr & 3u) == 0 && dtranslate(cksim::Access::kWrite, addr, si, &paddr)) {
      std::memcpy(fp.mem->raw() + paddr, &r[d.rd], 4);
      fp.mem->BumpFrameGeneration(paddr);
      CK_NEXT();
    }
    goto defer;
  }
  h_Sb: {
    const Decoded& d = sp->d;
    uint32_t addr = Rs1PlusImm(r, d);
    uint32_t paddr;
    if (dtranslate(cksim::Access::kWrite, addr, si, &paddr)) {
      fp.mem->raw()[paddr] = static_cast<uint8_t>(r[d.rd]);
      fp.mem->BumpFrameGeneration(paddr);
      CK_NEXT();
    }
    goto defer;
  }

  h_Jal:
    r[sp->d.rd] = sp->vpc + 4;
    CK_NEXT();  // next step is at the jump target

  branch_mispredict: {
    // The build-time prediction failed: exit to the actual successor. The
    // branch itself completed, so the full step commits.
    const TraceStep& s = *sp;
    bool predicted = (s.flags & TraceStep::kPredictedTaken) != 0;
    commit(si + 1);
    n += si + 1;
    // taken != predicted here, so the actual direction is !predicted.
    ctx.pc = !predicted ? BranchTarget(s.vpc, s.d) : s.vpc + 4;
    return TraceOutcome::kAdvanced;
  }

  trace_end:
    // Ran to the end of the trace (or out of budget) fully on the fast path.
    commit(si);
    n += si;
    ctx.pc = sp->next_vpc;
    return TraceOutcome::kAdvanced;

  h_Halt:
  h_Jalr:
  h_Trap:
  h_bad:
  defer:
    // Step si needs the bus, computes its successor, or ends the run: leave
    // it to the single-step loop. The execute hint lets that loop fetch it
    // through the micro-TLB (validated at trace entry) instead of the bus.
    commit(si);
    fp.mtlb->Fill(cksim::Access::kExecute, fp.asid, t.pages[sp->page_slot].vpage,
                  fetch_idx[sp->page_slot]);
    n += si;
    ctx.pc = sp->vpc;
    return TraceOutcome::kDeferred;
#undef CK_NEXT
#undef CK_DISPATCH
  }
};

// The interpreter core, shared by both policies. Instruction semantics and
// the fault/trap/halt protocol are policy-independent; the policy only decides
// how fetches, loads, stores and cycle charges are performed. Every return
// goes through `stop`, whose Policy::FlushAt lands batched charges on the CPU
// clock before the caller (the dispatch loop) reads it.
template <typename Policy>
RunResult RunLoop(VmContext& ctx, Policy& p, uint32_t budget) {
  RunResult result;
  auto stop = [&](RunEvent event, uint32_t retired, const cksim::Fault& fault = {}) {
    result.event = event;
    result.instructions = retired;
    result.fault = fault;
    p.FlushAt(ctx.pc);
    return result;
  };

  uint32_t n = 0;
  // Superblock traces are dispatched only at basic-block heads (quantum
  // entry, the target of a taken branch / jump, a trace exit, or the step
  // after a deferred one). Sequential fall-through pcs never probe the trace
  // cache: that keeps the single-step path free of per-instruction lookup
  // overhead and keeps trace-cache contents (and so the staged hit/miss
  // counters) deterministic.
  bool at_head = true;
  while (n < budget) {
    bool deferred = false;
    if (at_head) {
      TraceOutcome to = p.TryTrace(ctx, budget, n);
      if (to == TraceOutcome::kAdvanced) {
        continue;  // every trace exit point is again a dispatch point
      }
      deferred = to == TraceOutcome::kDeferred;
    }
    Decoded d;
    GuestBus::MemResult fetch_fail;
    if (!p.FetchDecoded(ctx.pc, d, fetch_fail)) {
      return stop(RunEvent::kFault, n, fetch_fail.fault);
    }
    p.ChargeInstruction();

    uint32_t* r = ctx.regs;
    r[0] = 0;
    uint32_t next_pc = ctx.pc + 4;

    switch (d.op) {
#define CK_ALU_CASE(Name, value, mnemonic, format, cls, expr) \
  case Op::k##Name:                                           \
    r[d.rd] = (expr);                                         \
    break;
      CKVM_ALU_OPS(CK_ALU_CASE)
#undef CK_ALU_CASE
#define CK_BRANCH_CASE(Name, value, mnemonic, format, cls, expr) \
  case Op::k##Name:                                              \
    if (expr) {                                                  \
      next_pc = BranchTarget(ctx.pc, d);                         \
    }                                                            \
    break;
      CKVM_BRANCH_OPS(CK_BRANCH_CASE)
#undef CK_BRANCH_CASE

      case Op::kNop:
        break;
      case Op::kHalt:
        ctx.pc = next_pc;
        return stop(RunEvent::kHalt, n + 1);

      case Op::kLw: {
        const uint32_t addr = Rs1PlusImm(r, d);
        if ((addr & 3u) != 0) {
          return stop(RunEvent::kFault, n + 1,
                      {cksim::FaultType::kBadAlignment, addr, cksim::Access::kRead});
        }
        GuestBus::MemResult m = p.Load(addr, 4);
        if (!m.ok) {
          return stop(RunEvent::kFault, n + 1, m.fault);
        }
        r[d.rd] = m.value;
        break;
      }
      case Op::kLb: {
        GuestBus::MemResult m = p.Load(Rs1PlusImm(r, d), 1);
        if (!m.ok) {
          return stop(RunEvent::kFault, n + 1, m.fault);
        }
        r[d.rd] = m.value;
        break;
      }
      case Op::kSw: {
        const uint32_t addr = Rs1PlusImm(r, d);
        if ((addr & 3u) != 0) {
          return stop(RunEvent::kFault, n + 1,
                      {cksim::FaultType::kBadAlignment, addr, cksim::Access::kWrite});
        }
        GuestBus::MemResult m = p.Store(addr, r[d.rd], 4);
        if (!m.ok) {
          return stop(RunEvent::kFault, n + 1, m.fault);
        }
        if (m.message_write) {
          p.OnMessageWrite(addr);
        }
        break;
      }
      case Op::kSb: {
        const uint32_t addr = Rs1PlusImm(r, d);
        GuestBus::MemResult m = p.Store(addr, r[d.rd], 1);
        if (!m.ok) {
          return stop(RunEvent::kFault, n + 1, m.fault);
        }
        if (m.message_write) {
          p.OnMessageWrite(addr);
        }
        break;
      }

      case Op::kJal:
        r[d.rd] = ctx.pc + 4;
        next_pc = BranchTarget(ctx.pc, d);
        break;
      case Op::kJalr:
        next_pc = Rs1PlusImm(r, d);  // before the link write: rd may be rs1
        r[d.rd] = ctx.pc + 4;
        break;

      case Op::kTrap:
        ctx.pc = next_pc;  // resume after the trap instruction
        result.trap_number = static_cast<uint16_t>(d.imm & 0xffff);
        return stop(RunEvent::kTrap, n + 1);

      default:
        return stop(RunEvent::kFault, n + 1,
                    {cksim::FaultType::kBadInstruction, ctx.pc, cksim::Access::kExecute});
    }

    r[0] = 0;
    at_head = deferred || next_pc != ctx.pc + 4;
    ctx.pc = next_pc;
    ++n;
  }

  return stop(RunEvent::kBudgetExhausted, budget);
}

}  // namespace

RunResult Run(VmContext& ctx, GuestBus& bus, uint32_t budget) {
  FastPath* fp = bus.fast_path();
  if (fp != nullptr) {
    FastPolicy p{SlowPolicy{bus}, *fp};
    return RunLoop(ctx, p, budget);
  }
  SlowPolicy p{bus};
  return RunLoop(ctx, p, budget);
}

}  // namespace ckisa
