// Section 5.2 companion: the thread-descriptor cache under timesharing
// pressure. "A system that is actively switching among more than 256 threads
// is incurring a context switching overhead that would dominate the cost of
// loading and unloading thread descriptors from the Cache Kernel."
//
// We sweep the process count across a fixed (scaled-down) thread cache under
// the UNIX emulator: below capacity, descriptor reclamation is zero and
// ms/process falls as start-up cost amortizes; above it, every scheduling
// round trips through writeback/reload, and the added cost per process stays
// bounded by the load/unload pair (Table 2), not by anything catastrophic --
// the paper's claim that the caching model degrades gracefully.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/isa/assembler.h"
#include "src/unixemu/unix_emulator.h"

namespace {

struct Point {
  bool finished;
  uint32_t processes;
  double ms_to_finish;
  double ms_per_process;
  uint64_t thread_reclaims;
  uint64_t thread_loads;
};

Point Run(uint32_t processes, uint32_t thread_slots) {
  ck::CacheKernelConfig ck_config;
  ck_config.thread_slots = thread_slots;
  ckbench::World world(ck_config);

  ckunix::UnixConfig config;
  config.sched_interval = 250000;  // 10 ms: prompt reload of reclaimed threads
  ckunix::UnixEmulator emulator(world.ck(), config);
  cksrm::LaunchParams params;
  params.page_groups = 8;
  params.max_priority = 31;
  params.locked_kernel_object = true;
  world.srm().Launch(emulator, params);
  ck::CkApi api = world.ApiFor(emulator);
  emulator.Start(api);

  ckisa::AssembleResult assembled = ckisa::Assemble(R"(
      addi t0, r0, 0
      addi t1, r0, 1
      li   t2, 3000
    loop:
      add  t0, t0, t1
      addi t1, t1, 1
      bge  t2, t1, loop
      mv   a0, t0
      trap 17
  )", 0x10000);

  for (uint32_t i = 0; i < processes; ++i) {
    emulator.Exec(api, assembled.program);
  }
  cksim::Cycles start = world.machine().Now();
  bool finished = world.RunUntil([&] { return emulator.AllExited(); }, 80000000);
  cksim::Cycles elapsed = world.machine().Now() - start;

  Point point;
  point.finished = finished;
  point.processes = processes;
  point.ms_to_finish = ckbench::ToUs(elapsed) / 1000.0;
  point.ms_per_process = point.ms_to_finish / processes;
  point.thread_reclaims =
      world.ck().stats().reclamations[static_cast<int>(ck::ObjectType::kThread)];
  point.thread_loads = world.ck().stats().loads[static_cast<int>(ck::ObjectType::kThread)];
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  constexpr uint32_t kSlots = 12;  // 4 scheduler threads + 8 guest slots
  constexpr uint32_t kFreeSlots = 8;
  ckbench::Title("Section 5.2 companion: thread-descriptor cache under timesharing");
  ckbench::Note("thread cache: 12 slots (4 pinned scheduler threads + 8 for processes)\n");
  std::printf("%10s %14s %16s %14s %12s\n", "processes", "total ms", "ms/process",
              "thread reloads", "reclaims");
  ckbench::Rule();
  std::vector<Point> points;
  double full_ms = 0.0;  // the sweep reaches kFreeSlots before any point past it
  for (uint32_t processes : {2u, 4u, kFreeSlots, 12u, 16u, 24u}) {
    Point point = Run(processes, kSlots);
    std::printf("%10u %14.1f %16.2f %14llu %12llu\n", point.processes, point.ms_to_finish,
                point.ms_per_process, static_cast<unsigned long long>(point.thread_loads),
                static_cast<unsigned long long>(point.thread_reclaims));
    points.push_back(point);
    if (processes == kFreeSlots) {
      full_ms = point.ms_per_process;
    }
  }
  ckbench::Rule();
  ckbench::Note("shape checks: up to the 8 free slots, zero reclamation, and ms/process falls");
  ckbench::Note("as start-up cost amortizes; above, each process pays bounded descriptor");
  ckbench::Note("load/writeback trips (Table 2's thread rows) amortized across its run --");
  ckbench::Note("graceful degradation, never a hard 'out of descriptors' failure (section 7).");

  ckbench::ShapeGate gate;
  for (const Point& point : points) {
    std::string at = " at " + std::to_string(point.processes) + " processes";
    gate.Check(("every process exits" + at).c_str(), point.finished);
    if (point.processes <= kFreeSlots) {
      gate.Check(("no reclamation within the free slots" + at).c_str(),
                 point.thread_reclaims == 0);
    } else {
      gate.Check(("reclamation past the free slots" + at).c_str(), point.thread_reclaims > 0);
      gate.Check(("ms/process within 2x of the 8-process point" + at).c_str(),
                 point.ms_per_process <= 2.0 * full_ms);
    }
  }
  obs.Finish();
  return gate.exit_code();
}
