// Figure 6 reproduction: dependency-ordered writeback.
//
// Unloading an object first writes back everything that depends on it:
// signal mappings -> threads -> address spaces -> kernel. This bench (a)
// verifies the cascade order on an instrumented unload and (b) sweeps the
// dependent-object population to show unload cost scaling -- the "worst
// case ... writeback of all the address spaces, threads and mappings
// associated with the kernel ... can take several milliseconds" claim of
// section 5.2.

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

class OrderRecorder : public ck::AppKernel {
 public:
  ck::HandlerAction HandleFault(const ck::FaultForward&, ck::CkApi&) override {
    return ck::HandlerAction::kTerminate;
  }
  ck::TrapAction HandleTrap(const ck::TrapForward&, ck::CkApi&) override { return {}; }
  void OnMappingWriteback(const ck::MappingWriteback&, ck::CkApi&) override {
    order.push_back('M');
  }
  void OnThreadWriteback(const ck::ThreadWriteback&, ck::CkApi&) override {
    order.push_back('T');
  }
  void OnSpaceWriteback(const ck::SpaceWriteback&, ck::CkApi&) override {
    order.push_back('S');
  }
  void OnKernelWriteback(const ck::KernelWriteback&, ck::CkApi&) override {
    order.push_back('K');
  }
  std::string order;
};

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  // A NO on the cascade-order check fails the run (exit 1).
  bool order_ok = false;
  // (a) cascade order on one kernel unload.
  {
    ckbench::World world;
    OrderRecorder recorder;
    ck::CkApi srm_api(world.ck(), world.ck().first_kernel(), world.machine().cpu(0));
    ck::KernelId kid = srm_api.LoadKernel(&recorder, 1).value();
    uint32_t group = 0x100000 / cksim::kPageGroupBytes;
    srm_api.GrantPageGroups(kid, group, 2, ck::GroupAccess::kReadWrite);

    ck::CkApi api(world.ck(), kid, world.machine().cpu(0));
    ck::SpaceId space = api.LoadSpace(0, false).value();
    ck::ThreadSpec tspec;
    tspec.space = space;
    tspec.start_blocked = true;
    ck::ThreadId signal_thread = api.LoadThread(tspec).value();
    api.LoadThread(tspec);
    // Two plain mappings and one signal mapping.
    for (uint32_t i = 0; i < 3; ++i) {
      ck::MappingSpec mspec;
      mspec.space = space;
      mspec.vaddr = 0x4000 + i * cksim::kPageSize;
      mspec.paddr = 0x100000 + i * cksim::kPageSize;
      if (i == 2) {
        mspec.flags.message = true;
        mspec.signal_thread = signal_thread;
      }
      api.LoadMapping(mspec);
    }

    // SRM writeback recorder for the kernel object itself goes to the SRM,
    // so the kernel's own 'K' is not visible to `recorder`; the order within
    // the app kernel's objects is what Figure 6 specifies.
    srm_api.UnloadKernel(kid);
    ckbench::Title("Figure 6: writeback cascade order on kernel unload");
    std::printf("observed order (T=thread, M=mapping, S=space): %s\n", recorder.order.c_str());
    bool threads_first = recorder.order.find_first_of('T') < recorder.order.find_first_of('M');
    bool space_last = recorder.order.back() == 'S';
    std::printf("threads before this space's mappings: %s; space written back last: %s\n",
                threads_first ? "yes" : "NO", space_last ? "yes" : "NO");
    order_ok = threads_first && space_last;
  }

  // (b) unload cost vs. dependent population.
  ckbench::Title("Figure 6: kernel unload cost vs. dependent object population");
  std::printf("%10s %10s %10s | %14s %14s\n", "spaces", "threads", "mappings", "unload (us)",
              "per object");
  ckbench::Rule();
  for (uint32_t scale : {1u, 2u, 4u, 8u, 16u}) {
    ckbench::World world;
    OrderRecorder recorder;
    ck::CkApi srm_api(world.ck(), world.ck().first_kernel(), world.machine().cpu(0));
    ck::KernelId kid = srm_api.LoadKernel(&recorder, 1).value();
    uint32_t group = 0x100000 / cksim::kPageGroupBytes;
    srm_api.GrantPageGroups(kid, group, 4, ck::GroupAccess::kReadWrite);
    ck::CkApi api(world.ck(), kid, world.machine().cpu(0));

    uint32_t spaces = scale;
    uint32_t threads_per_space = 2;
    uint32_t mappings_per_space = 8 * scale;
    for (uint32_t s = 0; s < spaces; ++s) {
      ck::SpaceId space = api.LoadSpace(s, false).value();
      for (uint32_t t = 0; t < threads_per_space; ++t) {
        ck::ThreadSpec tspec;
        tspec.space = space;
        tspec.start_blocked = true;
        api.LoadThread(tspec);
      }
      for (uint32_t m = 0; m < mappings_per_space; ++m) {
        ck::MappingSpec mspec;
        mspec.space = space;
        mspec.vaddr = 0x100000 + m * cksim::kPageSize;
        mspec.paddr = 0x100000 + (m % 256) * cksim::kPageSize;
        api.LoadMapping(mspec);
      }
    }
    uint32_t total = spaces * (1 + threads_per_space + mappings_per_space);
    cksim::Cycles cycles = ckbench::MeasureCycles(world.machine().cpu(0),
                                                  [&] { srm_api.UnloadKernel(kid); });
    std::printf("%10u %10u %10u | %14.1f %14.2f\n", spaces, spaces * threads_per_space,
                spaces * mappings_per_space, ckbench::ToUs(cycles),
                ckbench::ToUs(cycles) / total);
  }
  ckbench::Rule();
  ckbench::Note("shape checks: cost scales linearly with the dependent population; the");
  ckbench::Note("largest configurations take milliseconds, matching 'while this operation can");
  ckbench::Note("take several milliseconds, it is performed with interrupts enabled and very");
  ckbench::Note("infrequently' (section 5.2).");
  obs.Finish();
  return order_ok ? 0 : 1;
}
