// unix_paging: the paper's central mechanism under load. One 4-CPU MPM runs
// the UNIX emulator with kProcs guest processes; each loops over a private
// hot set and a sweep region, and half of them store to what they read.
// mapping_slots is below the combined working set while the granted frames
// hold all of it, so every miss is a descriptor reload (writeback ->
// forwarded fault -> LoadMapping) with no backing-store I/O after the first
// touch.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/isa/assembler.h"
#include "src/srm/srm.h"

namespace pb {
namespace {

constexpr uint32_t kProcs = 8;
constexpr uint32_t kHotPages = 16;
constexpr uint32_t kSweepPages = 48;
constexpr uint32_t kChunk = 8;  // sweep pages visited per pass
constexpr uint32_t kPasses = kSweepPages / kChunk;
constexpr uint32_t kTableLen = kPasses * (kHotPages + kChunk);
constexpr uint32_t kReps = 400;  // times each process walks its table
constexpr uint32_t kMappingSlots = 320;

struct ProcPlan {
  std::vector<uint32_t> table;  // byte offsets into the process's heap
  bool writer = false;
  uint32_t increment = 0;
  ckisa::Program program;
  uint32_t expected = 0;  // exit code: checksum over every value read
};

// The guest loop: sbrk the region, walk the table kReps times, fold each
// loaded word into s5 = s5 * 33 + value, and (writers) store value + inc.
std::string GuestSource(const ProcPlan& p) {
  std::string s;
  s += "    li   a0, " + std::to_string(kHotPages + kSweepPages) + "\n";
  s += "    trap 19\n";
  s += "    mv   s1, a0\n";
  s += "    addi s5, r0, 0\n";
  s += "    addi s6, r0, 33\n";
  s += "    li   s3, " + std::to_string(kReps) + "\n";
  s += "outer:\n";
  s += "    la   s2, table\n";
  s += "    li   s4, " + std::to_string(p.table.size()) + "\n";
  s += "inner:\n";
  s += "    lw   t0, 0(s2)\n";
  s += "    add  t0, t0, s1\n";
  s += "    lw   t1, 0(t0)\n";
  s += "    mul  s5, s5, s6\n";
  s += "    add  s5, s5, t1\n";
  if (p.writer) {
    s += "    addi t1, t1, " + std::to_string(p.increment) + "\n";
    s += "    sw   t1, 0(t0)\n";
  }
  s += "    addi s2, s2, 4\n";
  s += "    addi s4, s4, -1\n";
  s += "    bne  s4, r0, inner\n";
  s += "    addi s3, s3, -1\n";
  s += "    bne  s3, r0, outer\n";
  s += "    mv   a0, s5\n";
  s += "    trap 17\n";
  s += "table:\n";
  for (uint32_t off : p.table) {
    s += "    .word " + std::to_string(off) + "\n";
  }
  return s;
}

// Host reference: the same walk over a zero-filled heap.
uint32_t ExpectedChecksum(const ProcPlan& p) {
  std::map<uint32_t, uint32_t> mem;
  uint32_t sum = 0;
  for (uint32_t rep = 0; rep < kReps; ++rep) {
    for (uint32_t off : p.table) {
      uint32_t v = mem[off];
      sum = sum * 33 + v;
      if (p.writer) {
        mem[off] = v + p.increment;
      }
    }
  }
  return sum;
}

std::vector<ProcPlan> MakePlans(uint64_t seed, Batch& b) {
  Rng rng(seed ^ 0x756e69785f706167ull);
  std::vector<uint32_t> writer_slots(kProcs);
  for (uint32_t i = 0; i < kProcs; ++i) {
    writer_slots[i] = i;
  }
  rng.Shuffle(writer_slots);
  std::vector<ProcPlan> plans(kProcs);
  for (uint32_t i = 0; i < kProcs / 2; ++i) {
    plans[writer_slots[i]].writer = true;
  }
  for (ProcPlan& p : plans) {
    p.increment = 1 + rng.Below(15);
    // One word per page, at a seed-chosen offset inside the page.
    std::vector<uint32_t> word(kHotPages + kSweepPages);
    for (uint32_t& w : word) {
      w = rng.Below(cksim::kPageSize / 4) * 4;
    }
    for (uint32_t pass = 0; pass < kPasses; ++pass) {
      std::vector<uint32_t> pages;
      for (uint32_t h = 0; h < kHotPages; ++h) {
        pages.push_back(h);
      }
      for (uint32_t c = 0; c < kChunk; ++c) {
        pages.push_back(kHotPages + pass * kChunk + c);
      }
      rng.Shuffle(pages);
      for (uint32_t page : pages) {
        p.table.push_back(page * cksim::kPageSize + word[page]);
      }
    }
    ckisa::AssembleResult r = ckisa::Assemble(GuestSource(p), 0x10000);
    if (!r.ok) {
      b.Error("assemble: " + r.error);
    }
    p.program = r.program;
    p.expected = ExpectedChecksum(p);
  }
  return plans;
}

}  // namespace

Batch RunUnixPaging(uint64_t seed, const Mode& mode) {
  Batch b;
  SpanLog* spans = mode.spans;
  int64_t t0 = NowNs();
  Scoped setup_span(spans, "setup");
  std::vector<ProcPlan> plans = MakePlans(seed, b);

  cksim::Machine machine{cksim::MachineConfig()};
  ck::CacheKernelConfig ck_config;
  ck_config.mapping_slots = kMappingSlots;
  ck::CacheKernel kernel(machine, ck_config);
  cksrm::Srm srm(kernel);
  srm.Boot();
  SelfTimer timer;
  std::unique_ptr<TurnProbe> probe;
  if (mode.traced()) {
    probe = std::make_unique<TurnProbe>(machine, kernel, timer);
  }
  TimedUnix emu(kernel, ckunix::UnixConfig(), mode.traced() ? &timer : nullptr);
  cksrm::LaunchParams params;
  params.page_groups = 8;
  params.max_priority = 31;
  if (!srm.Launch(emu, params).ok()) {
    b.Error("launch failed");
    return b;
  }
  ck::CkApi api(kernel, emu.self(), machine.cpu(0));
  emu.Start(api);
  std::vector<int> pids;
  for (const ProcPlan& p : plans) {
    pids.push_back(emu.Exec(api, p.program));
  }
  b.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  setup_span.Close();

  // ---- measured phase ----
  cksim::Cycles sim_start = LatestClock(machine);
  uint64_t steps = 0;
  constexpr uint64_t kMaxSteps = 20000000;  // ~80x a normal batch
  int64_t t1 = NowNs();
  {
    Scoped run_span(spans, "machine.step_loop");
    if (mode.traced()) {
      while (!emu.AllExited() && steps < kMaxSteps) {
        timer.Enter(kDriver);
        machine.Step();
        timer.Exit();
        ++steps;
      }
    } else {
      while (!emu.AllExited() && steps < kMaxSteps) {
        machine.Step();
        ++steps;
      }
    }
  }
  b.wall_s = static_cast<double>(NowNs() - t1) / 1e9;

  // ---- verification against the host reference ----
  for (uint32_t i = 0; i < kProcs; ++i) {
    const ckunix::Process& proc = emu.process(pids[i]);
    bool ok = proc.state == ckunix::Process::State::kZombie &&
              static_cast<uint32_t>(proc.exit_code) == plans[i].expected;
    if (!ok) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "pid %d exit %u, expected %u", pids[i],
                    static_cast<uint32_t>(proc.exit_code), plans[i].expected);
      b.Error(buf);
    }
  }
  b.ops = kProcs + static_cast<uint64_t>(kProcs) * kReps * kTableLen;

  Metrics& d = b.det;
  AddKernelMetrics({&kernel}, d);
  d["sim_ms"] = {SimMs(sim_start, LatestClock(machine)), "ms"};
  d["ops"] = {static_cast<double>(b.ops), "count"};
  d["machine.steps"] = {static_cast<double>(steps), "count"};
  d["appkernel.faults"] = {static_cast<double>(emu.paging_stats().faults), "count"};
  d["appkernel.pages_out"] = {static_cast<double>(emu.paging_stats().pages_out), "count"};
  d["unixemu.syscalls"] = {static_cast<double>(emu.total_syscalls()), "count"};

  // Shape: this workload exists to exercise descriptor reclaim and reload.
  double hit = d["ck.mapping.hit_ratio"].value;
  b.Shape(d["ck.mapping.reclamations"].value > 0, "unix_paging reclaims no mappings");
  b.Shape(hit > 0 && hit < 1, "unix_paging mapping hit ratio not strictly inside (0, 1)");

  if (mode.traced()) {
    AddProbeMetrics({probe.get()}, {&timer}, {&emu}, d, b);
    b.traced["sim.step_overhead_ns"] = {
        steps == 0 ? 0.0 : static_cast<double>(timer.self_ns[kDriver]) / steps, "ns"};
    b.Shape(b.probe_counts["ck.turns.idle_share"].value < 0.5, "unix_paging turns mostly idle");
  }
  return b;
}

}  // namespace pb
