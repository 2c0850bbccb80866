// Section 5.3 reproduction: trap forwarding cost ("the cost of a simple trap
// from a UNIX program to its emulator is 37 microseconds, effectively the
// cost of a getpid operation").
//
// A CKVM guest under the UNIX emulator executes getpid in a tight loop; we
// time the full round trip: trap instruction -> Cache Kernel -> forward to
// the emulator's trap handler -> emulator looks up the pid -> resume with
// the return value.

#include "bench/bench_util.h"
#include "src/isa/assembler.h"
#include "src/unixemu/unix_emulator.h"

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;
  ckbench::World world;
  ckunix::UnixConfig config;
  config.run_scheduler_thread = false;  // quiet machine for the measurement
  ckunix::UnixEmulator unix_emulator(world.ck(), config);
  {
    cksrm::LaunchParams params;
    params.page_groups = 4;
    params.max_priority = 31;
    world.srm().Launch(unix_emulator, params);
  }
  ck::CkApi api = world.ApiFor(unix_emulator);

  ckisa::AssembleResult assembled = ckisa::Assemble(R"(
      li   t2, 200        ; iterations
    loop:
      trap 16             ; getpid
      addi t2, t2, -1
      bne  t2, r0, loop
      halt
  )", 0x10000);
  if (!assembled.ok) {
    std::printf("asm: %s\n", assembled.error.c_str());
    return 1;
  }
  int pid = unix_emulator.Exec(api, assembled.program);

  // Warm the text page in, then measure the steady-state syscall loop.
  world.RunUntil([&] { return unix_emulator.process(pid).syscalls >= 5; });
  cksim::Cycles start = world.machine().cpu(0).clock();
  uint64_t start_calls = unix_emulator.process(pid).syscalls;
  world.RunUntil([&] {
    return unix_emulator.process(pid).state == ckunix::Process::State::kZombie;
  });
  // The guest thread runs on cpu 0 (first round-robin placement).
  cksim::Cycles elapsed = world.machine().cpu(0).clock() - start;
  uint64_t calls = unix_emulator.process(pid).syscalls - start_calls;

  // Subtract the loop's own instructions (3 per iteration: trap counted in
  // the forward path, addi, bne).
  double per_call_us = ckbench::ToUs(elapsed) / static_cast<double>(calls);
  double loop_overhead_us =
      ckbench::ToUs(2 * world.machine().cost().instruction) / 1.0;  // addi + bne
  double getpid_us = per_call_us - loop_overhead_us;

  ckbench::Title("Section 5.3: getpid via trap forwarding");
  std::printf("%-44s %10s\n", "", "us/call");
  ckbench::Rule();
  std::printf("%-44s %10.0f\n", "paper: UNIX getpid through the emulator", 37.0);
  std::printf("%-44s %10.0f\n", "paper: same operation on Mach 2.5 (NextStation)", 25.0);
  std::printf("%-44s %10.1f\n", "simulated: getpid through our emulator", getpid_us);
  ckbench::Rule();
  std::printf("calls measured: %llu, total simulated time %.1f us\n",
              static_cast<unsigned long long>(calls), ckbench::ToUs(elapsed));
  std::printf("traps forwarded by the Cache Kernel: %llu\n",
              static_cast<unsigned long long>(world.ck().stats().traps_forwarded));
  ckbench::Note("shape check: same order of magnitude as the paper; the cost is dominated by");
  ckbench::Note("trap entry/exit and the redirect into the application kernel (Figure 2 path),");
  ckbench::Note("and is insignificant against real system-call processing (section 5.3).");

  ckbench::ShapeGate gate;
  gate.Check("getpid within 3x of the paper's 37 us",
             getpid_us >= 37.0 / 3 && getpid_us <= 37.0 * 3);
  gate.Check("every measured call was a forwarded trap",
             world.ck().stats().traps_forwarded >= calls);
  obs.Finish();
  return gate.exit_code();
}
