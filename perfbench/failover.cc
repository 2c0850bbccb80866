// failover: two MPMs over fiber channel run the multi-MPM script, sized up.
// An RPC stream runs from A to B while a UNIX emulator on A runs sleeping
// tickers and a spawner; A is checkpointed to stable store periodically,
// then halted, and B restores the emulator and runs it to verified exit.
// Most turns are idle; thread and space descriptors are written back during
// sleeps, and whole kernels are quiesced and restored, instead of mapping
// churn. It is the only workload that exercises srm/ckpt.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/appkernel/channel.h"
#include "src/isa/assembler.h"
#include "src/sim/cluster.h"
#include "src/srm/srm.h"

namespace pb {
namespace {

constexpr uint32_t kRpcCalls = 128;
constexpr uint32_t kTickers = 4;
constexpr uint32_t kTicks = 48;
constexpr uint32_t kCheckpoints = 4;
constexpr cksim::Cycles kCheckpointEvery = 625000;  // 25 ms
constexpr cksim::Cycles kMaxCycles = 400000000;

struct Node {
  Node() : machine(cksim::MachineConfig()), ck(machine, ck::CacheKernelConfig()), srm(ck) {
    srm.Boot();
  }
  cksim::Machine machine;
  ck::CacheKernel ck;
  cksrm::Srm srm;
};

struct Ticker {
  std::string msg;  // 4 bytes written per tick
  uint32_t sleep_us = 0;
  uint32_t exit_code = 0;
};

struct Plan {
  std::vector<uint32_t> rpc_args;
  std::vector<Ticker> tickers;
  std::string child_msg;  // 3 bytes
  uint32_t child_exit = 0;
};

uint32_t Word(const std::string& four) {
  uint32_t w = 0;
  std::memcpy(&w, four.data(), 4);
  return w;
}

std::string Letters(Rng& rng, uint32_t n) {
  std::string s;
  for (uint32_t i = 0; i < n; ++i) {
    s += static_cast<char>('a' + rng.Below(26));
  }
  return s;
}

Plan MakePlan(uint64_t seed) {
  Rng rng(seed ^ 0x6661696c6f766572ull);
  Plan p;
  for (uint32_t i = 0; i < kRpcCalls; ++i) {
    p.rpc_args.push_back(10 + rng.Below(990));
  }
  for (uint32_t i = 0; i < kTickers; ++i) {
    // Sleeps stay above the emulator's 10 ms unload threshold, so every
    // sleep writes the thread descriptor back and reloads it on wakeup.
    p.tickers.push_back(Ticker{Letters(rng, 4), 11500 + rng.Below(1000), 1 + rng.Below(100)});
  }
  p.child_msg = Letters(rng, 3);
  p.child_exit = 1 + rng.Below(100);
  return p;
}

ckisa::Program MustAssemble(const std::string& source, Batch& b) {
  ckisa::AssembleResult r = ckisa::Assemble(source, 0x10000);
  if (!r.ok) {
    b.Error("assemble: " + r.error);
  }
  return r.program;
}

std::string TickerSource(const Ticker& t) {
  return "    li   s0, " + std::to_string(kTicks) +
         "\n"
         "loop:\n"
         "    la   a0, msg\n"
         "    addi a1, r0, 4\n"
         "    trap 18\n"
         "    li   a0, " +
         std::to_string(t.sleep_us) +
         "\n"
         "    trap 20\n"
         "    addi s0, s0, -1\n"
         "    bne  s0, r0, loop\n"
         "    li   a0, " +
         std::to_string(t.exit_code) +
         "\n"
         "    trap 17\n"
         "msg:\n"
         "    .word " +
         std::to_string(Word(t.msg)) + "\n";
}

std::string ChildSource(const Plan& p) {
  return "    la   a0, msg\n"
         "    addi a1, r0, 3\n"
         "    trap 18\n"
         "    li   a0, " +
         std::to_string(p.child_exit) +
         "\n"
         "    trap 17\n"
         "msg:\n"
         "    .word " +
         std::to_string(Word(p.child_msg + '\0')) + "\n";
}

constexpr const char* kSpawnerSrc = R"(
      addi a0, r0, 0
      trap 24         ; spawn(program 0)
      trap 25         ; waitpid -> child exit code
      addi a0, a0, 1
      trap 17
)";

uint64_t SumOfSquares(uint32_t n) {
  uint64_t sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += i * i;
  }
  return sum;
}

cksim::Cycles ClockSum(cksim::Machine& m) {
  cksim::Cycles sum = 0;
  for (uint32_t i = 0; i < m.cpu_count(); ++i) {
    sum += m.cpu(i).clock();
  }
  return sum;
}

}  // namespace

Batch RunFailover(uint64_t seed, const Mode& mode) {
  Batch b;
  int64_t t0 = NowNs();
  Scoped setup_span(mode.spans, "setup");
  Plan plan = MakePlan(seed);

  Node a, nb;
  SelfTimer timer_a, timer_b, coordinator;
  std::unique_ptr<TurnProbe> probe_a, probe_b;
  if (mode.traced()) {
    probe_a = std::make_unique<TurnProbe>(a.machine, a.ck, timer_a);
    probe_b = std::make_unique<TurnProbe>(nb.machine, nb.ck, timer_b);
  }
  uint32_t group_a = a.srm.ReserveGroups(1).value();
  uint32_t group_b = nb.srm.ReserveGroups(1).value();
  cksim::FiberChannelDevice fc_a(a.machine.memory(), &a.ck, group_a * cksim::kPageGroupBytes, 4,
                                 4, 2500);
  cksim::FiberChannelDevice fc_b(nb.machine.memory(), &nb.ck, group_b * cksim::kPageGroupBytes,
                                 4, 4, 2500);
  cksim::Cluster cluster;
  cluster.AddMachine(&a.machine);
  cluster.AddMachine(&nb.machine);
  cluster.Link(fc_a, fc_b);
  cluster.set_parallel(mode.parallel);
  a.machine.AttachDevice(&fc_a);
  nb.machine.AttachDevice(&fc_b);

  ckapp::AppKernelBase app_a("dispatcher", 64), app_b("compute-node", 64);
  cksrm::LaunchParams params;
  params.page_groups = 2;
  a.srm.Launch(app_a, params);
  nb.srm.Launch(app_b, params);
  a.srm.GrantSharedGroups(app_a, group_a, 1, ck::GroupAccess::kReadWrite);
  nb.srm.GrantSharedGroups(app_b, group_b, 1, ck::GroupAccess::kReadWrite);
  ck::CkApi api_a(a.ck, app_a.self(), a.machine.cpu(0));
  ck::CkApi api_b(nb.ck, app_b.self(), nb.machine.cpu(0));
  uint32_t space_a = app_a.CreateSpace(api_a);
  uint32_t space_b = app_b.CreateSpace(api_b);

  // RPC: requests A->B, replies B->A. Op 1 = sum of squares 1..n.
  ckapp::MessageChannel requests, replies;
  ckapp::RpcServer server(requests, replies,
                          [](uint32_t op, const std::vector<uint8_t>& in, ck::CkApi&) {
                            std::vector<uint8_t> out(8, 0);
                            if (op == 1 && in.size() >= 4) {
                              uint32_t n;
                              std::memcpy(&n, in.data(), 4);
                              uint64_t sum = SumOfSquares(n);
                              std::memcpy(out.data(), &sum, 8);
                            }
                            return out;
                          });
  ckapp::RpcClient client(requests, replies);
  uint32_t server_thread = app_b.CreateNativeThread(api_b, space_b, &server, 16);
  uint32_t client_thread = app_a.CreateNativeThread(api_a, space_a, &client, 16);
  requests.ConfigureSender(app_a, space_a, 0x00800000, fc_a.tx_slot(0), 2);
  requests.ConfigureReceiver(app_b, space_b, 0x00900000, fc_b.rx_slot(0), 4, server_thread);
  replies.ConfigureSender(app_b, space_b, 0x00a00000, fc_b.tx_slot(2), 2);
  replies.ConfigureReceiver(app_a, space_a, 0x00b00000, fc_a.rx_slot(0), 4, client_thread);
  requests.PrimeReceiver(api_b);
  replies.PrimeReceiver(api_a);

  // The UNIX emulator on A, with its guest processes.
  cksim::StableStore store;
  TimedUnix emu_a(a.ck, ckunix::UnixConfig(), mode.traced() ? &timer_a : nullptr);
  cksrm::LaunchParams unix_params;
  unix_params.page_groups = 8;
  unix_params.max_priority = 31;
  unix_params.locked_kernel_object = true;
  a.srm.Launch(emu_a, unix_params);
  ck::CkApi unix_api(a.ck, emu_a.self(), a.machine.cpu(0));
  emu_a.Start(unix_api);
  emu_a.RegisterProgram(MustAssemble(ChildSource(plan), b));
  std::vector<int> ticker_pids;
  for (const Ticker& t : plan.tickers) {
    ticker_pids.push_back(emu_a.Exec(unix_api, MustAssemble(TickerSource(t), b)));
  }
  int spawner = emu_a.Exec(unix_api, MustAssemble(kSpawnerSrc, b));
  b.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  setup_span.Close();

  // ---- measured phase ----
  auto latest = [&] { return std::max(LatestClock(a.machine), LatestClock(nb.machine)); };
  cksim::Cycles sim_start = latest();
  int64_t cluster_ns = 0;
  int64_t checkpoint_ns = 0;
  int64_t restore_ns = 0;
  cksim::Cycles checkpoint_cycles = 0;
  TimedUnix emu_b(nb.ck, ckunix::UnixConfig(), mode.traced() ? &timer_b : nullptr);
  int64_t t1 = NowNs();
  {
    Scoped rpc_span(mode.spans, "rpc.stream");
    for (uint32_t n : plan.rpc_args) {
      uint64_t answer = 0;
      bool replied = false;
      std::vector<uint8_t> arg(4);
      std::memcpy(arg.data(), &n, 4);
      client.Call(api_a, 1, arg, [&](const std::vector<uint8_t>& reply, ck::CkApi&) {
        std::memcpy(&answer, reply.data(), 8);
        replied = true;
      });
      if (!TimedCluster(mode, cluster_ns,
                        [&] { return cluster.RunUntilDone([&] { return replied; }, kMaxCycles); })) {
        b.Error("rpc n=" + std::to_string(n) + " timed out");
        break;
      }
      if (answer != SumOfSquares(n)) {
        b.Error("rpc n=" + std::to_string(n) + " wrong answer");
      }
    }
  }
  for (uint32_t k = 0; k < kCheckpoints; ++k) {
    TimedCluster(mode, cluster_ns, [&] {
      cluster.RunFor(kCheckpointEvery);
      return true;
    });
    Scoped span(mode.spans, "srm.checkpoint_to_store");
    cksim::Cycles before = ClockSum(a.machine);
    coordinator.Enter(kCkpt);
    ckbase::CkStatus status = a.srm.CheckpointToStore(emu_a, store, "unix-emulator");
    checkpoint_ns += coordinator.Exit();
    checkpoint_cycles += ClockSum(a.machine) - before;
    if (status != ckbase::CkStatus::kOk) {
      b.Error("checkpoint " + std::to_string(k) + " failed");
    }
  }
  a.machine.Halt();
  bool restored = false;
  {
    Scoped span(mode.spans, "srm.restore_from_store");
    std::string error;
    coordinator.Enter(kCkpt);
    restored = nb.srm.RestoreFromStore(emu_b, store, "unix-emulator", ckckpt::RestoreOptions{},
                                       &error) == ckbase::CkStatus::kOk;
    restore_ns = coordinator.Exit();
    if (!restored) {
      b.Error("restore failed: " + error);
    }
  }
  if (restored &&
      !TimedCluster(mode, cluster_ns,
                    [&] { return cluster.RunUntilDone([&] { return emu_b.AllExited(); }, kMaxCycles); })) {
    b.Error("restored processes timed out on node B");
  }
  b.wall_s = static_cast<double>(NowNs() - t1) / 1e9;

  // ---- verification: stable pids, consoles and exit codes ----
  if (restored && emu_b.process_count() == kTickers + 2) {
    for (uint32_t i = 0; i < kTickers; ++i) {
      const ckunix::Process& p = emu_b.process(ticker_pids[i]);
      std::string console;
      for (uint32_t t = 0; t < kTicks; ++t) {
        console += plan.tickers[i].msg;
      }
      bool ok = p.pid == ticker_pids[i] && p.console == console &&
                p.exit_code == static_cast<int>(plan.tickers[i].exit_code);
      if (!ok) {
        b.Error("ticker pid " + std::to_string(ticker_pids[i]) + " wrong");
      }
    }
    const ckunix::Process& sp = emu_b.process(spawner);
    if (sp.pid != spawner || sp.exit_code != static_cast<int>(plan.child_exit + 1)) {
      b.Error("spawner wrong");
    }
    const ckunix::Process& child = emu_b.process(spawner + 1);
    if (child.console != plan.child_msg || child.exit_code != static_cast<int>(plan.child_exit)) {
      b.Error("child wrong");
    }
  } else if (restored) {
    b.Error("restored emulator has " + std::to_string(emu_b.process_count()) + " processes");
  }
  // RPC replies, checkpoints, and restored processes (tickers, spawner, child).
  b.ops = kRpcCalls + kCheckpoints + kTickers + 2;

  Metrics& d = b.det;
  AddKernelMetrics({&a.ck, &nb.ck}, d);
  d["sim_ms"] = {SimMs(sim_start, latest()), "ms"};
  d["ops"] = {static_cast<double>(b.ops), "count"};
  d["appkernel.faults"] = {
      static_cast<double>(emu_a.paging_stats().faults + emu_b.paging_stats().faults), "count"};
  d["appkernel.pages_out"] = {
      static_cast<double>(emu_a.paging_stats().pages_out + emu_b.paging_stats().pages_out),
      "count"};
  d["unixemu.syscalls"] = {static_cast<double>(emu_a.total_syscalls() + emu_b.total_syscalls()),
                           "count"};
  d["ckpt.bytes"] = {static_cast<double>(store.bytes_written()), "bytes"};
  d["ckpt.checkpoint_sim_us"] = {
      cksim::CostModel::ToMicroseconds(checkpoint_cycles) / kCheckpoints, "us"};
  d["sim.cluster.windows"] = {static_cast<double>(cluster.windows_run()), "count"};
  d["sim.wire.messages"] = {static_cast<double>(fc_a.packets_sent() + fc_a.bulk_sent() +
                                                fc_b.packets_sent() + fc_b.bulk_sent()),
                            "count"};
  b.Shape(d["ck.mapping.reclamations"].value == 0, "failover reclaims mappings");

  if (mode.traced()) {
    AddProbeMetrics({probe_a.get(), probe_b.get()}, {&timer_a, &timer_b, &coordinator},
                    {&emu_a, &emu_b}, d, b);
    AddClusterMetrics({probe_a.get(), probe_b.get()}, cluster_ns, cluster.windows_run(), b);
    b.traced["ckpt.checkpoint_ns"] = {static_cast<double>(checkpoint_ns) / kCheckpoints, "ns"};
    b.traced["ckpt.restore_ns"] = {static_cast<double>(restore_ns), "ns"};
    b.Shape(b.probe_counts["ck.turns.idle_share"].value > 0.5, "failover turns mostly busy");
  }
  return b;
}

}  // namespace pb
