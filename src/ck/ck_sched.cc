// Cache Kernel scheduling, dispatch, and trap/fault forwarding (Figure 2).

#include "src/ck/cache_kernel.h"

namespace ck {

using cksim::Cycles;
using cksim::PhysAddr;
using cksim::VirtAddr;

// Guest memory bus: binds the running thread's address space to the CPU's
// MMU. All guest instruction fetches, loads and stores flow through here.
class GuestBusImpl : public ckisa::GuestBus {
 public:
  GuestBusImpl(CacheKernel& ck, cksim::Cpu& cpu, AddressSpaceObject* space, uint16_t asid)
      : ck_(ck), cpu_(cpu), space_(space), asid_(asid),
        fast_enabled_(ck.knobs_.fastpath) {
    if (fast_enabled_) {
      fp_.mtlb = &ck.micro_tlbs_[cpu.id()];
      fp_.tlb = &cpu.mmu().tlb();
      fp_.exec_cache = ck.exec_cache_.get();
      fp_.mem = &ck.machine_.memory();
      fp_.remote_frame_bits = ck.remote_frames_.dense_data();
      fp_.frame_count = ck.remote_frames_.dense_limit();
      fp_.cpu = &cpu;
      fp_.asid = asid;
      fp_.cost_tlb_hit = ck.machine_.cost().tlb_hit;
      fp_.cost_mem_word = ck.machine_.cost().mem_word;
      fp_.cost_instruction = ck.machine_.cost().instruction;
      if (ck.knobs_.profile_period != 0) {
        fp_.sampler = &ck.samplers_[cpu.id()];
      }
      if (ck.knobs_.trace_exec) {
        // Superblock traces: the owning CPU's trace cache plus this quantum's
        // counters (FastPath contract: both set or both null).
        fp_.tcache = ck.trace_caches_[cpu.id()].get();
        fp_.trace_stats = &trace_stats_;
      }
    }
  }

  ckisa::FastPath* fast_path() override { return fast_enabled_ ? &fp_ : nullptr; }

  // This quantum's superblock-trace counters; RunGuest folds them into
  // CkStats and the tenant account when the quantum ends.
  const ckisa::TraceStats& trace_stats() const { return trace_stats_; }

  MemResult Fetch(uint32_t vaddr) override {
    return Access(vaddr, cksim::Access::kExecute, 0, 4);
  }
  MemResult Load(uint32_t vaddr, uint32_t bytes) override {
    return Access(vaddr, cksim::Access::kRead, 0, bytes);
  }
  MemResult Store(uint32_t vaddr, uint32_t value, uint32_t bytes) override {
    return Access(vaddr, cksim::Access::kWrite, value, bytes);
  }

  void ChargeInstruction() override { cpu_.Advance(ck_.machine_.cost().instruction); }

  void OnMessageWrite(uint32_t vaddr) override {
    // Signal-on-write hardware assist (section 2.2 footnote): the write
    // itself generates the address-valued signal.
    if (!ck_.config_.signal_on_write) {
      return;
    }
    cksim::Mmu::TranslateResult t =
        cpu_.mmu().Translate(space_->root_table, asid_, vaddr, cksim::Access::kRead);
    if (t.ok) {
      ck_.DeliverSignalToFrame(cksim::PageFrame(t.paddr), t.paddr & cksim::kPageOffsetMask,
                               cpu_.clock(), &cpu_);
    }
  }

 private:
  MemResult Access(uint32_t vaddr, cksim::Access access, uint32_t value, uint32_t size) {
    MemResult result;
    if (size == 4 && (vaddr & 3u) != 0) {
      result.fault.type = cksim::FaultType::kBadAlignment;
      result.fault.address = vaddr;
      result.fault.access = access;
      return result;
    }
    cksim::Mmu::TranslateResult t =
        cpu_.mmu().Translate(space_->root_table, asid_, vaddr, access);
    cpu_.Advance(t.cycles);
    if (!t.ok) {
      result.fault = t.fault;
      return result;
    }
    uint32_t pframe = cksim::PageFrame(t.paddr);
    if (ck_.FrameIsRemote(pframe)) {
      // Consistency fault: the line is held on a remote node or the memory
      // module failed (section 2.1).
      ck_.stats_.consistency_faults++;
      result.fault.type = cksim::FaultType::kConsistency;
      result.fault.address = vaddr;
      result.fault.access = access;
      return result;
    }
    cksim::PhysicalMemory& mem = ck_.machine_.memory();
    cpu_.Advance(ck_.machine_.cost().mem_word);
    if (access == cksim::Access::kWrite) {
      if (size == 4) {
        mem.WriteWord(t.paddr, value);
      } else {
        mem.WriteByte(t.paddr, static_cast<uint8_t>(value));
      }
      result.message_write = t.message_write;
    } else {
      result.value = size == 4 ? mem.ReadWord(t.paddr) : mem.ReadByte(t.paddr);
    }
    result.ok = true;
    // Seed the micro-TLB so the next access to this page takes the fast
    // path. Probe is side-effect free; the TLB entry is resident (the
    // translation above just hit or filled it).
    if (fast_enabled_) {
      fp_.mtlb->Fill(access, asid_, vaddr >> cksim::kPageShift,
                     fp_.tlb->Probe(asid_, vaddr >> cksim::kPageShift));
    }
    return result;
  }

  CacheKernel& ck_;
  cksim::Cpu& cpu_;
  AddressSpaceObject* space_;
  uint16_t asid_;
  bool fast_enabled_;
  ckisa::TraceStats trace_stats_;
  ckisa::FastPath fp_;
};

// ---------------------------------------------------------------------------
// Native application memory access
// ---------------------------------------------------------------------------

Result<uint32_t> CacheKernel::GuestLoad(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id,
                                        VirtAddr vaddr) {
  ThreadObject* thread = GetThread(thread_id);
  KernelObject* owner = GetKernel(caller);
  if (thread == nullptr || owner == nullptr || kernels_.SlotAt(thread->kernel_slot) != owner) {
    return CkStatus::kStale;
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    AddressSpaceObject* space =
        spaces_.Lookup(ckbase::PoolId{thread->space_slot, thread->space_gen});
    if (space == nullptr) {
      return CkStatus::kStale;
    }
    cksim::Mmu::TranslateResult t = cpu.mmu().Translate(
        space->root_table, static_cast<uint16_t>(thread->space_slot), vaddr,
        cksim::Access::kRead);
    cpu.Advance(t.cycles);
    if (t.ok) {
      if (FrameIsRemote(cksim::PageFrame(t.paddr))) {
        stats_.consistency_faults++;
        cksim::Fault fault;
        fault.type = cksim::FaultType::kConsistency;
        fault.address = vaddr;
        ForwardFault(thread, cpu, fault);
        continue;
      }
      cpu.Advance(machine_.cost().mem_word);
      return machine_.memory().ReadWord(t.paddr & ~3u);
    }
    ForwardFault(thread, cpu, t.fault);
    if (GetThread(thread_id) == nullptr || thread->state == ThreadState::kHalted ||
        thread->state == ThreadState::kBlocked) {
      return CkStatus::kBusy;  // the handler blocked or killed the thread
    }
  }
  return CkStatus::kNotFound;
}

CkStatus CacheKernel::GuestStore(KernelId caller, cksim::Cpu& cpu, ThreadId thread_id,
                                 VirtAddr vaddr, uint32_t value) {
  ThreadObject* thread = GetThread(thread_id);
  KernelObject* owner = GetKernel(caller);
  if (thread == nullptr || owner == nullptr || kernels_.SlotAt(thread->kernel_slot) != owner) {
    return CkStatus::kStale;
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    AddressSpaceObject* space =
        spaces_.Lookup(ckbase::PoolId{thread->space_slot, thread->space_gen});
    if (space == nullptr) {
      return CkStatus::kStale;
    }
    cksim::Mmu::TranslateResult t = cpu.mmu().Translate(
        space->root_table, static_cast<uint16_t>(thread->space_slot), vaddr,
        cksim::Access::kWrite);
    cpu.Advance(t.cycles);
    if (t.ok) {
      if (FrameIsRemote(cksim::PageFrame(t.paddr))) {
        stats_.consistency_faults++;
        cksim::Fault fault;
        fault.type = cksim::FaultType::kConsistency;
        fault.address = vaddr;
        fault.access = cksim::Access::kWrite;
        ForwardFault(thread, cpu, fault);
        continue;
      }
      cpu.Advance(machine_.cost().mem_word);
      machine_.memory().WriteWord(t.paddr & ~3u, value);
      if (t.message_write && config_.signal_on_write) {
        DeliverSignalToFrame(cksim::PageFrame(t.paddr), t.paddr & cksim::kPageOffsetMask,
                             cpu.clock(), &cpu);
      }
      return CkStatus::kOk;
    }
    ForwardFault(thread, cpu, t.fault);
    if (GetThread(thread_id) == nullptr || thread->state == ThreadState::kHalted ||
        thread->state == ThreadState::kBlocked) {
      return CkStatus::kBusy;
    }
  }
  return CkStatus::kNotFound;
}

// ---------------------------------------------------------------------------
// Ready queues
// ---------------------------------------------------------------------------

void CacheKernel::Enqueue(ThreadObject* thread, bool front) {
  ReadyQueue& queue = ready_[thread->cpu][thread->priority];
  if (front) {
    queue.PushFront(thread);
  } else {
    queue.PushBack(thread);
  }
  ready_mask_[thread->cpu] |= uint64_t{1} << thread->priority;
  thread->state = ThreadState::kReady;
}

void CacheKernel::Dequeue(ThreadObject* thread) {
  ReadyQueue& queue = ready_[thread->cpu][thread->priority];
  queue.Remove(thread);
  if (queue.empty()) {
    ready_mask_[thread->cpu] &= ~(uint64_t{1} << thread->priority);
  }
}

ThreadObject* CacheKernel::PickNext(cksim::Cpu& cpu) {
  RollQuotaWindow(cpu);
  // Pass 0 honors quotas; pass 1 runs over-quota threads only when the
  // processor is otherwise idle ("reduced to a low priority so that they only
  // run when the processor is otherwise idle", section 4.3).
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t scan = ready_mask_[cpu.id()]; scan != 0;) {
      int prio = 63 - __builtin_clzll(scan);
      scan &= ~(uint64_t{1} << prio);
      ReadyQueue& queue = ready_[cpu.id()][prio];
      for (ThreadObject* t : queue) {
        KernelObject* owner = kernels_.SlotAt(t->kernel_slot);
        bool degraded = config_.enforce_quotas && owner->over_quota[cpu.id()];
        if (pass == 0 && degraded) {
          continue;
        }
        Dequeue(t);
        return t;
      }
    }
  }
  return nullptr;
}

void CacheKernel::PreemptCurrent(cksim::Cpu& cpu) {
  ThreadObject* cur = CurrentOn(cpu);
  if (cur == nullptr) {
    return;
  }
  cpu.Advance(machine_.cost().context_save);
  cur->state = ThreadState::kReady;
  Enqueue(cur);
  cpu.current_thread = nullptr;
  stats_.preemptions++;
  CK_TRACE(Ring(cpu), obs::EventType::kPreemption, cpu.clock(), cur->priority,
           threads_.IdOf(cur).Packed());
}

void CacheKernel::RollQuotaWindow(cksim::Cpu& cpu) {
  if (cpu.clock() - quota_window_start_[cpu.id()] < config_.quota_window) {
    return;
  }
  quota_window_start_[cpu.id()] = cpu.clock();
  for (uint32_t slot = 0; slot < kernels_.capacity(); ++slot) {
    if (!kernels_.IsAllocated(slot)) {
      continue;
    }
    KernelObject* k = kernels_.SlotAt(slot);
    k->weighted_consumed[cpu.id()] = 0;
    k->over_quota[cpu.id()] = false;
  }
}

Cycles CacheKernel::IdleWakeBound(const cksim::Cpu& cpu) {
  const uint32_t self = cpu.id();
  Cycles bound = machine_.turn_horizon();
  if (bound <= cpu.clock()) {
    return bound;  // raw Step(), or a device event already due
  }
  bound = std::min(bound, quota_window_start_[self] + config_.quota_window);
  if (!app_events_.empty()) {
    bound = std::min(bound, app_events_.front().at);
  }
  if (TierEnabled() && config_.tier_promote_period != 0) {
    bound = std::min(bound, tier_next_scan_);
  }
  for (uint32_t i = 0; i < machine_.cpu_count(); ++i) {
    const cksim::Cpu& peer = machine_.cpu(i);
    if (i != self && (peer.current_thread != nullptr || ready_mask_[i] != 0)) {
      // A busy peer acts at its next turn: at its clock, and a peer with a
      // higher index only after this CPU's turn at the same clock (Machine::
      // Step runs the lowest index on ties).
      bound = std::min(bound, peer.clock() + (i > self ? 1 : 0));
    } else if (!pending_signals_[i].empty()) {
      // An idle CPU (this one included) can do nothing another CPU sees
      // until its first pending signal lands; its turns before then only
      // advance its own clock and roll its own quota window.
      bound = std::min(bound, pending_signals_[i].front().due);
    }
  }
  return bound;
}

void CacheKernel::ChargeThread(ThreadObject* thread, cksim::Cpu& cpu, Cycles cycles,
                               uint64_t times) {
  const Cycles total = times * cycles;
  thread->cpu_consumed += total;
  thread->slice_remaining = thread->slice_remaining > total
                                ? thread->slice_remaining - total
                                : 0;
  cpu.busy_cycles += total;
  Tenant(thread->kernel_slot).guest_cycles += total;

  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);
  // Graduated charging (section 4.3): a premium for high-priority execution,
  // a discount for low. weight/16 ranges from 0.5 at priority 0 to ~2.4 at 31.
  uint64_t weighted = times * (cycles * (8 + thread->priority) / 16);
  owner->weighted_consumed[cpu.id()] += weighted;
  cpu.Advance(times * machine_.cost().quota_account);

  if (config_.enforce_quotas && owner->cpu_percent[cpu.id()] < 100 &&
      !owner->over_quota[cpu.id()]) {
    uint64_t budget =
        static_cast<uint64_t>(owner->cpu_percent[cpu.id()]) * config_.quota_window / 100;
    if (owner->weighted_consumed[cpu.id()] > budget) {
      owner->over_quota[cpu.id()] = true;
      stats_.quota_degradations++;
      CK_TRACE(Ring(cpu), obs::EventType::kQuotaDegrade, cpu.clock(),
               owner->cpu_percent[cpu.id()], thread->kernel_slot);
    }
  }
}

// ---------------------------------------------------------------------------
// The dispatch loop
// ---------------------------------------------------------------------------

void CacheKernel::OnCpuTurn(cksim::Cpu& cpu) {
  // Tiered-memory maintenance (DRAM trim + hot-page promotion) runs at the
  // head of every turn, so every tier transition is a deterministic serial
  // point.
  TierMaintenance(cpu);

  // Application-kernel deferred events due on this CPU's clock.
  while (!app_events_.empty() && app_events_.front().at <= cpu.clock()) {
    AppEvent event = std::move(app_events_.front());
    app_events_.erase(app_events_.begin());
    KernelObject* k = kernels_.Lookup(event.kernel);
    if (k != nullptr) {
      CkApi api(*this, KernelId{event.kernel}, cpu);
      event.fn(api);
    }
  }

  DrainPendingSignals(cpu);

  ThreadObject* current = CurrentOn(cpu);
  if (current != nullptr) {
    // Priority preemption: a higher-priority thread readied since last turn.
    // (Double shift: current->priority may be 63, and a single >>64 is UB.)
    if ((ready_mask_[cpu.id()] >> current->priority) >> 1 != 0) {
      PreemptCurrent(cpu);
      current = nullptr;
    }
    // Quota preemption: a degraded kernel's thread runs only when the
    // processor is otherwise idle (section 4.3), so any ready non-degraded
    // thread takes the processor at the next dispatch boundary.
    if (current != nullptr && config_.enforce_quotas &&
        kernels_.SlotAt(current->kernel_slot)->over_quota[cpu.id()]) {
      bool other_waiting = false;
      for (uint32_t prio = 0; prio < config_.priority_levels && !other_waiting; ++prio) {
        for (ThreadObject* t : ready_[cpu.id()][prio]) {
          if (!kernels_.SlotAt(t->kernel_slot)->over_quota[cpu.id()]) {
            other_waiting = true;
            break;
          }
        }
      }
      if (other_waiting) {
        PreemptCurrent(cpu);
        current = nullptr;
      }
    }
  }

  if (current == nullptr) {
    current = PickNext(cpu);
    if (current == nullptr) {
      // Idle: no thread descriptor is loaded here (section 4.3). The CPU
      // advances on a grid of idle_tick steps, each counted as one idle turn,
      // and nothing can happen on it before IdleWakeBound. So take every
      // tick before that bound in one turn (at least one tick). The clocks
      // and idle_turns then match a schedule that takes one tick per turn,
      // which is what a raw Machine::Step() still does. A pending signal due
      // before the next grid point ends the advance at its due time (at
      // least one cycle on).
      const Cycles tick = machine_.cost().idle_tick;
      const Cycles wake = IdleWakeBound(cpu);
      const uint64_t ticks = wake > cpu.clock() ? (wake - cpu.clock() - 1) / tick + 1 : 1;
      stats_.idle_turns += ticks;
      Cycles target = cpu.clock() + ticks * tick;
      if (!pending_signals_[cpu.id()].empty()) {
        target = std::max(cpu.clock() + 1, std::min(target, pending_signals_[cpu.id()].front().due));
      }
      cpu.AdvanceTo(target);
      return;
    }
    current->state = ThreadState::kRunning;
    cpu.current_thread = current;
    current->slice_remaining = config_.time_slice;
    cpu.Advance(machine_.cost().context_restore);
    stats_.context_switches++;
    CK_TRACE(Ring(cpu), obs::EventType::kContextSwitch, cpu.clock(), current->priority,
             threads_.IdOf(current).Packed());
  }

  if (current->native != nullptr) {
    RunNative(current, cpu);
  } else {
    RunGuest(current, cpu);
  }

  // Time-slice expiry: round-robin within the priority (section 4.3).
  ThreadObject* still = CurrentOn(cpu);
  if (still != nullptr && still->slice_remaining == 0) {
    PreemptCurrent(cpu);
  }
}

// Run one guest quantum, fold its counters into CkStats and the tenant
// account, and handle its exit event.
void CacheKernel::RunGuest(ThreadObject* thread, cksim::Cpu& cpu) {
  AddressSpaceObject* space =
      spaces_.Lookup(ckbase::PoolId{thread->space_slot, thread->space_gen});
  if (space == nullptr) {
    // Invariant violation: threads are unloaded with their space.
    UnloadThreadInternal(thread, cpu, UnloadCause::kDiscard);
    return;
  }

  MaybeEnterSignalHandler(thread, cpu);

  Cycles before = cpu.clock();
  GuestBusImpl bus(*this, cpu, space, static_cast<uint16_t>(thread->space_slot));
  ckisa::RunResult run = ckisa::Run(thread->vm, bus, config_.dispatch_budget);

  ChargeThread(thread, cpu, cpu.clock() - before);
  const ckisa::TraceStats& traces = bus.trace_stats();
  stats_.guest_instructions += run.instructions;
  stats_.exec_trace_hits += traces.hits;
  stats_.exec_trace_misses += traces.misses;
  stats_.exec_trace_invalidations += traces.invalidations;
  stats_.exec_trace_builds += traces.builds;
  CostAccount& account = Tenant(thread->kernel_slot);
  account.guest_instructions += run.instructions;
  account.exec_trace_hits += traces.hits;
  account.exec_trace_misses += traces.misses;
  account.exec_trace_invalidations += traces.invalidations;
  account.exec_trace_builds += traces.builds;

  // Harvest the quantum's profiler sample (if one came due) while the owning
  // kernel slot is still known -- the interpreter only latched the PC.
  ckisa::PcSampler& sampler = samplers_[cpu.id()];
  if (sampler.pending) {
    sampler.pending = false;
    RecordPcSample(thread->kernel_slot, sampler.last_pc, cpu);
  }

  switch (run.event) {
    case ckisa::RunEvent::kBudgetExhausted:
      break;
    case ckisa::RunEvent::kTrap:
      if (run.trap_number < kFirstAppTrap) {
        HandleCkTrap(thread, cpu, run.trap_number);
      } else {
        ForwardTrap(thread, cpu, run.trap_number);
      }
      break;
    case ckisa::RunEvent::kFault:
      ForwardFault(thread, cpu, run.fault);
      break;
    case ckisa::RunEvent::kHalt: {
      ThreadId id = IdOfThread(thread);
      uint64_t cookie = thread->cookie;
      KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);
      thread->state = ThreadState::kHalted;
      cpu.current_thread = nullptr;
      CkApi api(*this, IdOfKernel(owner), cpu);
      owner->handlers->OnThreadHalt(id, cookie, api);
      break;
    }
  }
}

void CacheKernel::RunNative(ThreadObject* thread, cksim::Cpu& cpu) {
  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);
  ThreadId id = IdOfThread(thread);
  NativeCtx ctx(CkApi(*this, IdOfKernel(owner), cpu), id, thread->cookie);

  // Deliver queued address-valued signals before the step.
  while (thread->signal_count > 0) {
    VirtAddr addr = thread->signal_queue[thread->signal_head];
    thread->signal_head = (thread->signal_head + 1) % ThreadObject::kSignalQueueDepth;
    thread->signal_count--;
    thread->signals_taken++;
    thread->native->OnSignal(addr, ctx);
    if (GetThread(id) != thread || thread->state != ThreadState::kRunning) {
      return;  // the handler unloaded or blocked the thread
    }
  }

  Cycles before = cpu.clock();
  NativeOutcome outcome = thread->native->Step(ctx);
  if (GetThread(id) != thread) {
    return;  // the step unloaded this thread
  }
  Cycles consumed = cpu.clock() - before;
  if (consumed == 0) {
    cpu.Advance(machine_.cost().instruction);
    consumed = machine_.cost().instruction;
  }
  ChargeThread(thread, cpu, consumed);

  switch (outcome.action) {
    case NativeOutcome::Action::kYield: {
      // Spin skipping: take in one turn every certified repeat that starts
      // before anything else can act on this CPU, short of one that would
      // expire the slice or degrade the kernel. A queued signal goes first,
      // and so does a higher-priority thread readied during this turn.
      if (outcome.quiet_until <= cpu.clock() || consumed == 0 || thread->signal_count > 0 ||
          thread->slice_remaining == 0 || (ready_mask_[cpu.id()] >> thread->priority) >> 1 != 0) {
        break;
      }
      const Cycles bound = std::min(outcome.quiet_until, IdleWakeBound(cpu));
      const uint32_t c = cpu.id();
      const Cycles per_step = consumed + machine_.cost().quota_account;
      uint64_t k = std::min(bound > cpu.clock() ? (bound - cpu.clock() - 1) / per_step + 1 : 0,
                            (thread->slice_remaining - 1) / consumed);
      if (config_.enforce_quotas && owner->cpu_percent[c] < 100) {
        // ChargeThread's budget test solved for k. A step that just degraded
        // the kernel can be preempted at its next turn, so it ends the spin.
        const uint64_t budget = uint64_t{owner->cpu_percent[c]} * config_.quota_window / 100;
        const uint64_t weighted = consumed * (8 + thread->priority) / 16;
        if (owner->over_quota[c]) {
          k = 0;
        } else if (weighted > 0) {
          k = std::min(k, (budget - owner->weighted_consumed[c]) / weighted);
        }
      }
      if (k > 0) {
        cpu.Advance(k * consumed);
        ChargeThread(thread, cpu, consumed, k);
      }
      break;
    }
    case NativeOutcome::Action::kBlock:
      if (thread->state == ThreadState::kRunning) {
        // A signal may have raced in during the step; stay runnable then.
        if (thread->signal_count > 0) {
          break;
        }
        thread->state = ThreadState::kBlocked;
        cpu.current_thread = nullptr;
        cpu.Advance(machine_.cost().context_save);
      }
      break;
    case NativeOutcome::Action::kHalt: {
      thread->state = ThreadState::kHalted;
      cpu.current_thread = nullptr;
      CkApi api(*this, IdOfKernel(owner), cpu);
      owner->handlers->OnThreadHalt(id, thread->cookie, api);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Forwarding (Figure 2)
// ---------------------------------------------------------------------------

void CacheKernel::ForwardFault(ThreadObject* thread, cksim::Cpu& cpu, const cksim::Fault& fault) {
  const cksim::CostModel& cost = machine_.cost();
  stats_.faults_forwarded++;
  Tenant(thread->kernel_slot).faults_forwarded++;
  // Every forwarded fault opens a causal span. Allocation is unconditional
  // (the counter is machine-local deterministic state), so enabling tracing
  // never changes the id sequence the differential suites compare.
  uint32_t fault_span = machine_.AllocSpanId();
  fault_trace_ = FaultTrace{};
  fault_trace_.trap_entry = cpu.clock();
  CK_TRACE(Ring(cpu), obs::EventType::kSpanBegin, cpu.clock(),
           static_cast<uint16_t>(fault.type), fault_span);
  CK_TRACE(Ring(cpu), obs::EventType::kFaultTrapEntry, cpu.clock(),
           static_cast<uint32_t>(fault.type), fault.address);

  // Step 1-2: the access error handler stores the faulting thread's state,
  // switches it to the application kernel's space and exception stack, and
  // starts it in the kernel's fault handler.
  cpu.Advance(cost.trap_entry + cost.context_save + cost.handler_dispatch);

  AddressSpaceObject* space = spaces_.SlotAt(thread->space_slot);
  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);

  FaultForward forward;
  ThreadId id = IdOfThread(thread);
  forward.thread = id;
  forward.thread_cookie = thread->cookie;
  forward.space_cookie = space->cookie;
  forward.fault = fault;
  if (fault.type == cksim::FaultType::kProtection) {
    PhysAddr leaf = LeafPteAddr(space, fault.address, /*create=*/false, cpu);
    if (leaf != 0) {
      uint32_t pte = machine_.memory().ReadWord(leaf);
      forward.copy_on_write = cksim::PteValid(pte) && (pte & cksim::kPteCopyOnWrite) != 0;
    }
  }

  fault_trace_.handler_start = cpu.clock();
  CK_TRACE(Ring(cpu), obs::EventType::kFaultHandlerStart, cpu.clock(),
           static_cast<uint32_t>(fault.type), id.id.Packed());
  CkApi api(*this, IdOfKernel(owner), cpu);
  cpu.Advance(cost.app_handler_base);
  HandlerAction action = owner->handlers->HandleFault(forward, api);

  // The handler may have unloaded or blocked the thread; revalidate.
  ThreadObject* revalidated = GetThread(id);
  if (revalidated == nullptr) {
    if (CurrentOn(cpu) == thread) {
      cpu.current_thread = nullptr;
    }
    return;
  }

  switch (action) {
    case HandlerAction::kResume:
    case HandlerAction::kResumed:
      // Step 5-6: exception processing complete; the thread re-executes the
      // faulting access.
      cpu.Advance(cost.trap_exit);
      if (thread->state == ThreadState::kBlocked) {
        thread->state = ThreadState::kReady;
        Enqueue(thread, /*front=*/true);
      }
      fault_trace_.resumed = cpu.clock();
      CK_TRACE(Ring(cpu), obs::EventType::kFaultResumed, cpu.clock(),
               static_cast<uint32_t>(fault.type), id.id.Packed());
      RecordFaultTrace(fault_trace_);
      break;
    case HandlerAction::kBlock:
      if (CurrentOn(cpu) == thread) {
        cpu.current_thread = nullptr;
      }
      if (thread->ready_node.linked()) {
        Dequeue(thread);
      }
      thread->state = ThreadState::kBlocked;
      cpu.Advance(cost.context_save);
      break;
    case HandlerAction::kTerminate:
      if (CurrentOn(cpu) == thread) {
        cpu.current_thread = nullptr;
      }
      if (thread->ready_node.linked()) {
        Dequeue(thread);
      }
      thread->state = ThreadState::kHalted;
      owner->handlers->OnThreadHalt(id, forward.thread_cookie, api);
      // The owning kernel declined to handle the fault: a fatal fault. Let
      // the observability layer dump a flight record before state moves on.
      if (fatal_hook_) {
        fatal_hook_("fatal-fault");
      }
      break;
  }
}

void CacheKernel::ForwardTrap(ThreadObject* thread, cksim::Cpu& cpu, uint16_t number) {
  const cksim::CostModel& cost = machine_.cost();
  stats_.traps_forwarded++;
  CK_TRACE(Ring(cpu), obs::EventType::kTrapForward, cpu.clock(), number,
           threads_.IdOf(thread).Packed());

  // Same redirect mechanism as faults (section 2.3 trap forwarding).
  cpu.Advance(cost.trap_entry + cost.handler_dispatch);

  KernelObject* owner = kernels_.SlotAt(thread->kernel_slot);
  TrapForward forward;
  ThreadId id = IdOfThread(thread);
  forward.thread = id;
  forward.thread_cookie = thread->cookie;
  forward.number = number;
  for (int i = 0; i < 6; ++i) {
    forward.args[i] = thread->vm.regs[ckisa::kRegA0 + i];
  }

  CkApi api(*this, IdOfKernel(owner), cpu);
  cpu.Advance(cost.app_handler_base);
  TrapAction action = owner->handlers->HandleTrap(forward, api);

  ThreadObject* revalidated = GetThread(id);
  if (revalidated == nullptr) {
    if (CurrentOn(cpu) == thread) {
      cpu.current_thread = nullptr;
    }
    return;
  }

  switch (action.action) {
    case HandlerAction::kResume:
    case HandlerAction::kResumed:
      if (action.has_return_value) {
        thread->vm.regs[ckisa::kRegA0] = action.return_value;
      }
      cpu.Advance(cost.trap_exit);
      if (thread->state == ThreadState::kBlocked) {
        thread->state = ThreadState::kReady;
        Enqueue(thread, /*front=*/true);
      }
      break;
    case HandlerAction::kBlock:
      if (CurrentOn(cpu) == thread) {
        cpu.current_thread = nullptr;
      }
      if (thread->ready_node.linked()) {
        Dequeue(thread);
      }
      thread->state = ThreadState::kBlocked;
      cpu.Advance(cost.context_save);
      break;
    case HandlerAction::kTerminate:
      if (CurrentOn(cpu) == thread) {
        cpu.current_thread = nullptr;
      }
      if (thread->ready_node.linked()) {
        Dequeue(thread);
      }
      thread->state = ThreadState::kHalted;
      owner->handlers->OnThreadHalt(id, forward.thread_cookie, api);
      break;
  }
}

void CacheKernel::HandleCkTrap(ThreadObject* thread, cksim::Cpu& cpu, uint16_t number) {
  const cksim::CostModel& cost = machine_.cost();
  switch (number) {
    case kTrapSignalReturn:
      cpu.Advance(cost.signal_return);
      if (thread->in_signal) {
        thread->in_signal = false;
        thread->vm.pc = thread->saved_pc;
        // Drain the next queued signal, if any.
        MaybeEnterSignalHandler(thread, cpu);
      }
      break;

    case kTrapSignal: {
      // a0 = virtual address of the new message in the sender's space.
      cpu.Advance(cost.trap_entry + cost.call_gate);
      AddressSpaceObject* space = spaces_.SlotAt(thread->space_slot);
      VirtAddr vaddr = thread->vm.regs[ckisa::kRegA0];
      cksim::Mmu::TranslateResult t = cpu.mmu().Translate(
          space->root_table, static_cast<uint16_t>(thread->space_slot), vaddr,
          cksim::Access::kRead);
      cpu.Advance(t.cycles);
      if (t.ok) {
        // Must be a message-mode mapping; otherwise the signal is ignored
        // (the guest misused the trap).
        PhysAddr leaf = LeafPteAddr(space, vaddr, /*create=*/false, cpu);
        uint32_t pte = leaf != 0 ? machine_.memory().ReadWord(leaf) : 0;
        if (cksim::PteValid(pte) && (pte & cksim::kPteMessage) != 0) {
          machine_.DeliverDoorbell(t.paddr, cpu.clock());
          DeliverSignalToFrame(cksim::PageFrame(t.paddr), t.paddr & cksim::kPageOffsetMask,
                               cpu.clock(), &cpu);
        }
      } else {
        // Sender's mapping is not loaded: deliver the mapping fault so the
        // application kernel loads all mappings for the message page
        // (multi-mapping consistency, section 4.2).
        thread->vm.pc -= 4;  // re-execute the trap after the fault resolves
        ForwardFault(thread, cpu, t.fault);
        return;
      }
      cpu.Advance(cost.trap_exit);
      break;
    }

    case kTrapAwaitSignal:
      cpu.Advance(cost.call_gate);
      if (thread->signal_count > 0) {
        if (thread->signal_handler != 0) {
          MaybeEnterSignalHandler(thread, cpu);
        } else {
          VirtAddr addr = thread->signal_queue[thread->signal_head];
          thread->signal_head = (thread->signal_head + 1) % ThreadObject::kSignalQueueDepth;
          thread->signal_count--;
          thread->signals_taken++;
          thread->vm.regs[ckisa::kRegA0] = addr;
        }
      } else {
        // Suspend, staying loaded, so the arrival resumes quickly
        // ("a thread can also remain loaded ... when it suspends itself by
        // waiting on a signal", section 2.3).
        thread->state = ThreadState::kBlocked;
        cpu.current_thread = nullptr;
        cpu.Advance(cost.context_save);
      }
      break;

    case kTrapYield:
      thread->slice_remaining = 0;
      break;

    default:
      // Unknown Cache Kernel trap: treat as an application trap so the owning
      // kernel can decide (it usually terminates the thread).
      ForwardTrap(thread, cpu, number);
      break;
  }
}

}  // namespace ck
