// Ablation A1: the per-processor reverse-TLB for signal delivery (section
// 4.1). With it on, repeat deliveries to the active thread take the fast
// path; with it off, every delivery pays the two-stage physical-memory-map
// lookup. The paper's design argument: "signal delivery to the active thread
// is fast and the overhead of signal delivery to the non-active thread is
// more".

#include "bench/bench_util.h"

namespace {

class BenchKernel : public ckapp::AppKernelBase {
 public:
  BenchKernel() : ckapp::AppKernelBase("rtlb", 128) {}
};

class NullReceiver : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx&) override {
    ck::NativeOutcome outcome;
    outcome.action = ck::NativeOutcome::Action::kBlock;
    return outcome;
  }
  void OnSignal(cksim::VirtAddr, ck::NativeCtx&) override { ++received; }
  uint64_t received = 0;
};

struct Row {
  bool enabled;
  double us_per_signal;
  uint64_t fast, slow;
};

Row Run(bool reverse_tlb_enabled, uint32_t signals) {
  ck::CacheKernelConfig config;
  config.reverse_tlb_enabled = reverse_tlb_enabled;
  ckbench::World world(config);
  BenchKernel app;
  world.Launch(app);
  ck::CkApi api = world.ApiFor(app);
  uint32_t space = app.CreateSpace(api);
  cksim::PhysAddr frame = app.frames().Allocate();

  NullReceiver receiver;
  // Same-CPU receiver: delivery happens inline at the Signal call, so the
  // measured cost is pure delivery mechanism.
  uint32_t thread = app.CreateNativeThread(api, space, &receiver, 20, false, /*cpu=*/0);
  app.DefineFrameRegion(space, 0x00800000, 1, frame, true, true);
  app.DefineFrameRegion(space, 0x00900000, 1, frame, false, true, thread);
  app.EnsureMappingLoaded(api, space, 0x00800000);
  app.EnsureMappingLoaded(api, space, 0x00900000);

  ckbase::Stats cost;
  for (uint32_t i = 0; i < signals; ++i) {
    cost.Add(ckbench::ToUs(ckbench::MeasureCycles(
        world.machine().cpu(0), [&] { api.Signal(app.space(space).ck_id, 0x00800000); })));
  }
  Row row;
  row.enabled = reverse_tlb_enabled;
  row.us_per_signal = cost.Mean();
  row.fast = world.ck().stats().signals_delivered_fast;
  row.slow = world.ck().stats().signals_delivered_slow;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  constexpr uint32_t kSignals = 200;
  Row with = Run(true, kSignals);
  Row without = Run(false, kSignals);

  ckbench::Title("Ablation A1: reverse-TLB fast path for signal delivery");
  std::printf("%-24s %16s %12s %12s\n", "configuration", "us/signal", "fast path", "slow path");
  ckbench::Rule();
  std::printf("%-24s %16.1f %12llu %12llu\n", "reverse-TLB enabled", with.us_per_signal,
              static_cast<unsigned long long>(with.fast),
              static_cast<unsigned long long>(with.slow));
  std::printf("%-24s %16.1f %12llu %12llu\n", "reverse-TLB disabled", without.us_per_signal,
              static_cast<unsigned long long>(without.fast),
              static_cast<unsigned long long>(without.slow));
  ckbench::Rule();
  std::printf("speedup from the reverse-TLB: %.2fx on repeat deliveries\n",
              without.us_per_signal / with.us_per_signal);
  ckbench::Note("shape check: with the reverse-TLB only the first delivery takes the two-stage");
  ckbench::Note("lookup; disabled, every delivery does (section 4.1's design rationale).");
  ckbench::ShapeGate gate;
  gate.Check("enabled: every delivery after the first takes the fast path",
             with.fast == kSignals - 1 && with.slow == 1);
  gate.Check("disabled: no delivery takes the fast path", without.fast == 0);
  gate.Check("reverse-TLB speedup at least 1.3x",
             without.us_per_signal >= 1.3 * with.us_per_signal);
  obs.Finish();
  return gate.exit_code();
}
