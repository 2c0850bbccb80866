// Section 5.3 reproduction: memory-based-messaging signal delivery.
//
// Paper: "The time to deliver a signal from one thread to another running on
// a separate processor is 71 microseconds, composed of 44 microseconds for
// signal delivery and 27 microseconds for the return from signal handler."
//
// We measure: (a) cross-processor delivery latency -- from the sender's
// Signal call to the receiving thread's handler observing the message, and
// (b) the return-from-signal-handler path, using a guest receiver running a
// real signal function. The reverse-TLB fast path and the slow two-stage
// lookup are reported separately (section 4.1).

#include <algorithm>

#include "bench/bench_util.h"
#include "src/isa/assembler.h"

namespace {

class BenchKernel : public ckapp::AppKernelBase {
 public:
  BenchKernel() : ckapp::AppKernelBase("sigbench", 128) {}
};

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  ckbench::World world;
  BenchKernel app;
  world.Launch(app);
  ck::CkApi api = world.ApiFor(app);
  uint32_t space = app.CreateSpace(api);
  cksim::PhysAddr frame = app.frames().Allocate();

  // Guest receiver on cpu 1: handler increments a counter page and returns.
  ckisa::AssembleResult assembled = ckisa::Assemble(R"(
      li   t0, 0x00a00000
    wait:
      trap 3              ; await signal
      j    wait
    handler:
      li   t2, 0x00a00000
      lw   t3, 0(t2)
      addi t3, t3, 1
      sw   t3, 0(t2)
      trap 1              ; return from signal handler
  )", 0x10000);
  if (!assembled.ok) {
    std::printf("asm: %s\n", assembled.error.c_str());
    return 1;
  }
  app.LoadProgramImage(space, assembled.program, /*writable=*/false);
  app.DefineZeroRegion(space, 0x00a00000, 1, /*writable=*/true);

  ckapp::GuestThreadParams params;
  params.space_index = space;
  params.entry = 0x10000;
  params.cpu_hint = 1;  // separate processor from the sender (cpu 0)
  params.priority = 20;
  params.signal_handler = assembled.program.labels.at("handler");
  uint32_t receiver = app.CreateGuestThread(api, params);

  app.DefineFrameRegion(space, 0x00800000, 1, frame, /*writable=*/true, /*message=*/true);
  app.DefineFrameRegion(space, 0x00900000, 1, frame, /*writable=*/false, /*message=*/true,
                        receiver);
  app.EnsureMappingLoaded(api, space, 0x00800000);
  app.EnsureMappingLoaded(api, space, 0x00900000);

  // Counter page lives at a fixed frame so we can read it cheaply.
  auto count = [&]() -> uint32_t {
    ckapp::PageRecord* page = app.space(space).FindPage(0x00a00000);
    if (page == nullptr || page->where != ckapp::PageRecord::Where::kResident) {
      return 0;
    }
    uint32_t value = 0;
    api.ReadPhys(page->frame, &value, 4);
    return value;
  };

  // Let the receiver reach its await.
  world.RunUntil([&] {
    auto state = world.ck().GetThreadState(app.thread(receiver).ck_id);
    return state.ok() && state.value() == ck::ThreadState::kBlocked;
  });

  constexpr int kSignals = 100;
  ckbase::Stats latency;
  for (int i = 0; i < kSignals; ++i) {
    uint32_t before = count();
    cksim::Cycles sent_at = world.machine().cpu(0).clock();
    api.Signal(app.space(space).ck_id, 0x00800000);
    world.RunUntil([&] { return count() > before; });
    // Delivery latency as seen end-to-end: sender's call to the handler's
    // visible effect, on the receiver's clock.
    cksim::Cycles handled_at = world.machine().cpu(1).clock();
    latency.Add(ckbench::ToUs(handled_at - sent_at));
    // Let the handler finish its return and re-block.
    world.RunUntil([&] {
      auto state = world.ck().GetThreadState(app.thread(receiver).ck_id);
      return state.ok() && state.value() == ck::ThreadState::kBlocked;
    });
  }

  const ck::CkStats& stats = world.ck().stats();
  const cksim::CostModel& cost = world.machine().cost();

  ckbench::Title("Section 5.3: cross-processor signal delivery");
  std::printf("%-52s %10s\n", "", "us");
  ckbench::Rule();
  std::printf("%-52s %10.0f\n", "paper: total (deliver + return from handler)", 71.0);
  std::printf("%-52s %10.0f\n", "paper:   signal delivery component", 44.0);
  std::printf("%-52s %10.0f\n", "paper:   return-from-handler component", 27.0);
  std::printf("%-52s %10.1f\n", "simulated: end-to-end (call -> handler ran), mean",
              latency.Mean());
  std::printf("%-52s %10.1f\n", "simulated:   p95", latency.Percentile(95));
  std::printf("%-52s %10.1f\n", "simulated:   charged return-from-handler path",
              ckbench::ToUs(cost.signal_return));
  ckbench::Rule();
  std::printf("deliveries: fast (reverse-TLB hit) %llu, slow (two-stage pmap lookup) %llu\n",
              static_cast<unsigned long long>(stats.signals_delivered_fast),
              static_cast<unsigned long long>(stats.signals_delivered_slow));
  std::printf("fast-path cost %0.f us vs slow-path %0.f us (charged)\n",
              ckbench::ToUs(cost.signal_deliver_fast), ckbench::ToUs(cost.signal_deliver_slow));
  ckbench::Note("shape checks: tens of microseconds end-to-end; delivery dominated by the");
  ckbench::Note("IPI + rescheduling of the receiving thread; reverse-TLB hits make repeat");
  ckbench::Note("deliveries cheaper than the first (sections 4.1, 5.3).");

  // --- Addendum: thread-teardown signal-record reclaim ---
  //
  // Unloading a thread frees its Signal records. The records are chained per
  // thread (through their spare context bits, heads in a kernel side array),
  // so teardown walks O(registrations) records regardless of how full the
  // 65536-entry memory map is. Before the chain, teardown scanned the whole
  // record arena -- O(capacity) host work per thread unload, growing with
  // occupancy. The simulated cost is one hash_op per removed record either
  // way; the win is host-side. The table sweeps map occupancy with filler
  // PhysToVirt records and shows teardown host time staying flat.
  class NopProgram : public ck::NativeProgram {
   public:
    ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
      ctx.Charge(100);
      ck::NativeOutcome outcome;
      outcome.action = ck::NativeOutcome::Action::kYield;
      return outcome;
    }
  };
  ckbench::ShapeGate gate;
  gate.Check("end-to-end delivery within 3x of the paper's 71 us",
             latency.Mean() > 71.0 / 3 && latency.Mean() < 71.0 * 3);
  // The measured end-to-end time includes the charged return path, as the
  // paper's 71 us total does, so delivery is the remainder.
  gate.Check("delivery costs more than the return from the handler (paper: 44 vs 27 us)",
             latency.Mean() - ckbench::ToUs(cost.signal_return) >
                 ckbench::ToUs(cost.signal_return));
  gate.Check("every delivery after the first takes the fast path",
             stats.signals_delivered_fast == uint64_t{kSignals - 1} &&
                 stats.signals_delivered_slow == 1);
  gate.Check("fast deliveries outnumber slow ones",
             stats.signals_delivered_fast > stats.signals_delivered_slow);
  gate.Check("the slow path costs more than the fast path",
             cost.signal_deliver_slow > cost.signal_deliver_fast);

  NopProgram nop;
  constexpr uint32_t kRegistrations = 4;
  constexpr int kReps = 5;
  // Filler mappings rotate over a few frames so no single pmap hash chain
  // degenerates; each (frame, vaddr) pair is a distinct record.
  constexpr uint32_t kFillerFrames = 64;
  std::vector<cksim::PhysAddr> filler_frames;
  for (uint32_t i = 0; i < kFillerFrames; ++i) {
    filler_frames.push_back(app.frames().Allocate());
  }

  ckbench::Title("Section 5.3 addendum: signal-record reclaim at thread teardown");
  std::printf("  %-22s %-16s %18s %16s\n", "filler pv records", "registrations",
              "teardown host ns", "sim cycles");
  ckbench::Rule();

  std::vector<cksim::Cycles> teardown_cycles;
  uint32_t filler_loaded = 0;
  uint32_t next_vpage = 0;
  // One warmup teardown so the first measured row isn't cold-cache noise.
  app.UnloadThreadByIndex(api, app.CreateNativeThread(api, space, &nop, 5));
  for (uint32_t occupancy : {0u, 8192u, 32768u}) {
    // Top the map up to `occupancy` filler records (same few frames, fresh
    // virtual pages; teardown never visits them -- that is the point).
    while (filler_loaded < occupancy) {
      cksim::VirtAddr va = 0x01000000 + (next_vpage++) * cksim::kPageSize;
      app.DefineFrameRegion(space, va, 1, filler_frames[filler_loaded % kFillerFrames],
                            /*writable=*/false, /*message=*/false);
      app.EnsureMappingLoaded(api, space, va);
      ++filler_loaded;
    }

    double total_ns = 0;
    cksim::Cycles total_cycles = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      uint32_t victim = app.CreateNativeThread(api, space, &nop, 5);
      for (uint32_t r = 0; r < kRegistrations; ++r) {
        cksim::VirtAddr va = 0x02000000 + (next_vpage++) * cksim::kPageSize;
        app.DefineFrameRegion(space, va, 1, filler_frames[r % kFillerFrames],
                              /*writable=*/false, /*message=*/true, victim);
        app.EnsureMappingLoaded(api, space, va);
      }
      total_cycles += ckbench::MeasureCycles(world.machine().cpu(0), [&] {
        total_ns += ckbench::MeasureHostNs([&] { app.UnloadThreadByIndex(api, victim); });
      });
    }
    std::printf("  %-22u %-16u %18.0f %16.0f\n", occupancy, kRegistrations, total_ns / kReps,
                static_cast<double>(total_cycles) / kReps);
    teardown_cycles.push_back(total_cycles);
  }
  ckbench::Rule();
  ckbench::Note("host ns flat across occupancy = O(registrations) chain walk; the previous");
  ckbench::Note("arena scan grew linearly with the 65536-record map. sim cycles unchanged");
  ckbench::Note("by design: one hash_op per removed record (plus the thread writeback).");
  // Host ns is not gated: it is host time, and noisy on a shared machine.
  gate.Check("teardown sim cycles stay flat with occupancy",
             std::count(teardown_cycles.begin(), teardown_cycles.end(),
                        teardown_cycles.front()) == std::ssize(teardown_cycles));
  obs.Finish();
  return gate.exit_code();
}
