// Differential suite for exact idle skipping.
//
// Inside Machine::RunUntil an idle CPU takes every idle_tick before its next
// possible wakeup in one turn; a raw Machine::Step() still takes one tick per
// turn. Every world here runs twice -- once through RunUntil(deadline), once
// through `while (Now() < deadline) Step();` -- over the same deadlines, and
// all simulated state must be bit-identical: the full CkStats (idle_turns
// included), every tenant's CostAccount, every CPU clock after every
// deadline, and the checkpoint image of every app kernel. Each world leans
// on one wake bound (docs/PERFORMANCE.md, "Idle skipping"), at the default
// idle_tick and at idle_tick 1, where every idle CPU lands exactly on its
// bound and so ties with busy peers on every wakeup.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "src/sim/devices.h"
#include "src/unixemu/unix_emulator.h"
#include "tests/test_harness.h"

namespace {

using ckbase::CkStatus;
using cktest::TestWorld;
using cktest::WorldOptions;

// Forwards every turn to the Cache Kernel and counts them.
class TurnCounter : public cksim::MachineClient {
 public:
  explicit TurnCounter(ck::CacheKernel& ck) : ck_(ck) {}
  void OnCpuTurn(cksim::Cpu& cpu) override {
    ++turns;
    ck_.OnCpuTurn(cpu);
  }
  uint64_t turns = 0;

 private:
  ck::CacheKernel& ck_;
};

// A world plus everything a scenario hangs off it. Apps are checkpointed at
// the end; `work` counts the scenario's wakeups so a test can check that the
// bound it targets was actually exercised.
struct Rig {
  explicit Rig(const WorldOptions& options) : world(options), counter(world.ck()) {
    world.machine().AttachKernel(&counter);
  }
  ck::CkApi ApiFor(ckapp::AppKernelBase& app, uint32_t cpu = 0) {
    return ck::CkApi(world.ck(), app.self(), world.machine().cpu(cpu));
  }
  template <typename T, typename... Args>
  T* Make(Args&&... args) {
    auto program = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = program.get();
    programs.push_back(std::move(program));
    return raw;
  }

  // Declared before the world, which refers to them, so they outlive it.
  std::vector<std::unique_ptr<ck::NativeProgram>> programs;
  std::vector<std::unique_ptr<ckapp::AppKernelBase>> apps;
  std::unique_ptr<cksim::ClockDevice> clock;
  uint64_t work = 0;
  TestWorld world;
  TurnCounter counter;
};

using Scenario = std::function<void(Rig&)>;

struct Observed {
  ck::CkStats stats;
  std::vector<ck::CostAccount> tenants;
  std::vector<cksim::Cycles> clocks;  // every CPU, after every deadline
  std::vector<std::vector<uint8_t>> images;
  uint64_t turns = 0;
  uint64_t work = 0;
};

// Deadlines step by an odd stride, so most fall between idle ticks.
constexpr cksim::Cycles kStride = 12347;

Observed Run(const Scenario& setup, const WorldOptions& options, cksim::Cycles end,
             cksim::Cycles stride, bool stepped) {
  Rig rig(options);
  setup(rig);
  cksim::Machine& machine = rig.world.machine();
  Observed out;
  for (cksim::Cycles deadline = stride; deadline < end + stride; deadline += stride) {
    if (stepped) {
      while (machine.Now() < deadline) {
        machine.Step();
      }
    } else {
      machine.RunUntil(deadline);
    }
    for (uint32_t c = 0; c < machine.cpu_count(); ++c) {
      out.clocks.push_back(machine.cpu(c).clock());
    }
  }
  out.stats = rig.world.ck().stats();
  out.tenants = rig.world.ck().tenant_accounts();
  out.turns = rig.counter.turns;
  out.work = rig.work;
  cksim::StableStore store;
  for (const auto& app : rig.apps) {
    EXPECT_EQ(rig.world.srm().CheckpointToStore(*app, store, app->name()), CkStatus::kOk);
    std::vector<uint8_t> image;
    EXPECT_TRUE(store.Get(app->name(), &image));
    out.images.push_back(std::move(image));
  }
  return out;
}

// Runs `setup` both ways at idle_tick 100 and 1; returns the skipping run's
// observations at the default tick.
Observed ExpectSkipExact(const Scenario& setup, WorldOptions options, cksim::Cycles end,
                         cksim::Cycles stride = kStride) {
  Observed result;
  for (cksim::Cycles tick : {cksim::Cycles{100}, cksim::Cycles{1}}) {
    SCOPED_TRACE("idle_tick " + std::to_string(tick));
    options.cost.idle_tick = tick;
    Observed skipped = Run(setup, options, end, stride, /*stepped=*/false);
    Observed stepped = Run(setup, options, end, stride, /*stepped=*/true);
    EXPECT_EQ(0, std::memcmp(&skipped.stats, &stepped.stats, sizeof(ck::CkStats)))
        << "CkStats differ (idle_turns " << skipped.stats.idle_turns << " vs "
        << stepped.stats.idle_turns << ")";
    EXPECT_TRUE(skipped.tenants.size() == stepped.tenants.size() &&
                std::memcmp(skipped.tenants.data(), stepped.tenants.data(),
                            skipped.tenants.size() * sizeof(ck::CostAccount)) == 0)
        << "tenant cost accounts differ";
    EXPECT_EQ(skipped.clocks, stepped.clocks) << "CPU clocks differ";
    EXPECT_EQ(skipped.images, stepped.images) << "checkpoint images differ";
    EXPECT_EQ(skipped.work, stepped.work);
    EXPECT_GT(skipped.stats.idle_turns, 0u);
    EXPECT_LT(skipped.turns, stepped.turns) << "RunUntil skipped no idle ticks";
    if (tick == 100) {
      result = skipped;
    }
  }
  return result;
}

ckisa::Program MustAssemble(const char* source) {
  ckisa::AssembleResult result = ckisa::Assemble(source, 0x10000);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

ck::NativeOutcome Outcome(ck::NativeOutcome::Action action) {
  ck::NativeOutcome outcome;
  outcome.action = action;
  return outcome;
}

// Runs a short unit of work per wakeup, then blocks until resumed.
class Worker : public ck::NativeProgram {
 public:
  Worker(uint64_t* work, cksim::Cycles cost) : work_(work), cost_(cost) {}
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ctx.Charge(cost_);
    ++*work_;
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }

 private:
  uint64_t* work_;
  cksim::Cycles cost_;
};

// Blocks forever; each signal it takes resumes the next of `targets`.
class Relay : public ck::NativeProgram {
 public:
  ck::NativeOutcome Step(ck::NativeCtx&) override {
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }
  void OnSignal(cksim::VirtAddr, ck::NativeCtx& ctx) override {
    ctx.api().ResumeThread(targets[next++ % targets.size()]);
  }
  std::vector<ck::ThreadId> targets;
  uint64_t next = 0;
};

ck::ThreadId IdOf(ckapp::AppKernelBase& app, uint32_t index) { return app.thread(index).ck_id; }

ckapp::AppKernelBase& AddApp(Rig& rig, const char* name) {
  rig.apps.push_back(std::make_unique<ckapp::AppKernelBase>(name, 32));
  rig.world.Launch(*rig.apps.back(), 1);
  return *rig.apps.back();
}

// ---------------------------------------------------------------------------
// A busy peer readies a thread on an idle CPU.
// ---------------------------------------------------------------------------

// Computes in uneven chunks and resumes the consumer every fourth step;
// blocks for good after `limit` steps.
class Producer : public ck::NativeProgram {
 public:
  explicit Producer(uint32_t limit) : limit_(limit) {}
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ctx.Charge(613 + 37 * (steps_ % 7));
    if (++steps_ % 4 == 0) {
      ctx.api().ResumeThread(consumer);
    }
    return Outcome(steps_ < limit_ ? ck::NativeOutcome::Action::kYield
                                   : ck::NativeOutcome::Action::kBlock);
  }
  ck::ThreadId consumer;

 private:
  uint32_t steps_ = 0;
  uint32_t limit_;
};

Scenario BusyPeer(uint8_t producer_cpu, uint8_t consumer_cpu) {
  return [=](Rig& rig) {
    ckapp::AppKernelBase& app = AddApp(rig, "busy-peer");
    ck::CkApi api = rig.ApiFor(app);
    uint32_t space = app.CreateSpace(api);
    auto* consumer = rig.Make<Worker>(&rig.work, 150);
    auto* producer = rig.Make<Producer>(400);
    uint32_t c = app.CreateNativeThread(api, space, consumer, 10, false, consumer_cpu);
    app.CreateNativeThread(api, space, producer, 10, false, producer_cpu);
    producer->consumer = IdOf(app, c);
  };
}

TEST(IdleSkipTest, BusyPeerReadiesHigherIndexCpu) {
  Observed run = ExpectSkipExact(BusyPeer(0, 2), WorldOptions(), 400000);
  EXPECT_GT(run.work, 50u);
}

TEST(IdleSkipTest, BusyPeerReadiesLowerIndexCpu) {
  Observed run = ExpectSkipExact(BusyPeer(3, 1), WorldOptions(), 400000);
  EXPECT_GT(run.work, 50u);
}

// ---------------------------------------------------------------------------
// A cross-CPU signal (IPI) wakes an idle CPU, which then readies threads on
// other idle CPUs: every CPU is idle while the signal is in flight.
// ---------------------------------------------------------------------------

// Signals the message page, then sleeps on an app event; stops after
// `limit` signals.
class Sender : public ck::NativeProgram {
 public:
  Sender(ck::SpaceId space, uint32_t limit) : space_(space), limit_(limit) {}
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ctx.Charge(500);
    ctx.api().Signal(space_, 0x00800000);
    if (++sent_ < limit_) {
      ck::ThreadId self = ctx.self_thread();
      ctx.api().ScheduleAfter(20011, [self](ck::CkApi& later) { later.ResumeThread(self); });
    }
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }

 private:
  ck::SpaceId space_;
  uint32_t limit_;
  uint32_t sent_ = 0;
};

TEST(IdleSkipTest, CrossCpuSignalWakesIdlePeers) {
  Scenario setup = [](Rig& rig) {
    ckapp::AppKernelBase& app = AddApp(rig, "ipi");
    ck::CkApi api = rig.ApiFor(app);
    uint32_t space = app.CreateSpace(api);
    auto* relay = rig.Make<Relay>();
    uint32_t r = app.CreateNativeThread(api, space, relay, 20, false, 2);
    for (uint8_t cpu : {1, 3}) {
      uint32_t w = app.CreateNativeThread(api, space, rig.Make<Worker>(&rig.work, 300), 10,
                                          false, cpu);
      relay->targets.push_back(IdOf(app, w));
    }
    cksim::PhysAddr frame = app.frames().Allocate();
    app.DefineFrameRegion(space, 0x00800000, 1, frame, /*writable=*/true, /*message=*/true);
    app.DefineFrameRegion(space, 0x00900000, 1, frame, /*writable=*/false, /*message=*/true, r);
    ASSERT_EQ(app.EnsureMappingLoaded(api, space, 0x00800000), CkStatus::kOk);
    ASSERT_EQ(app.EnsureMappingLoaded(api, space, 0x00900000), CkStatus::kOk);
    app.CreateNativeThread(api, space, rig.Make<Sender>(app.space(space).ck_id, 15), 10, false,
                           0);
  };
  Observed run = ExpectSkipExact(setup, WorldOptions(), 400000);
  EXPECT_EQ(run.work, 2u + 15u) << "each worker's first step, then one wakeup per signal";
}

// ---------------------------------------------------------------------------
// A clock device tick wakes an idle CPU.
// ---------------------------------------------------------------------------

TEST(IdleSkipTest, ClockDeviceTickWakesIdleCpu) {
  Scenario setup = [](Rig& rig) {
    ckapp::AppKernelBase& app = AddApp(rig, "clock");
    uint32_t group = rig.world.srm().ReserveGroups(1).value();
    cksim::PhysAddr tick_page = group * cksim::kPageGroupBytes;
    rig.clock = std::make_unique<cksim::ClockDevice>(tick_page, &rig.world.ck());
    rig.world.machine().AttachDevice(rig.clock.get());
    ASSERT_EQ(rig.world.srm().GrantSharedGroups(app, group, 1, ck::GroupAccess::kRead),
              CkStatus::kOk);
    ck::CkApi api = rig.ApiFor(app);
    uint32_t space = app.CreateSpace(api);
    auto* relay = rig.Make<Relay>();
    uint32_t r = app.CreateNativeThread(api, space, relay, 20, false, 3);
    uint32_t w = app.CreateNativeThread(api, space, rig.Make<Worker>(&rig.work, 900), 10, false,
                                        1);
    relay->targets.push_back(IdOf(app, w));
    app.DefineFrameRegion(space, 0x00700000, 1, tick_page, /*writable=*/false, /*message=*/true,
                          r);
    ASSERT_EQ(app.EnsureMappingLoaded(api, space, 0x00700000), CkStatus::kOk);
    rig.clock->Start(/*first_tick=*/30001, /*period=*/25013);
  };
  Observed run = ExpectSkipExact(setup, WorldOptions(), 400000);
  EXPECT_GE(run.work, 10u);
}

// ---------------------------------------------------------------------------
// UNIX sleep: app events wake sleeping processes (short sleeps stay loaded,
// a long one unloads the thread descriptor).
// ---------------------------------------------------------------------------

ckunix::UnixEmulator& AddUnix(Rig& rig) {
  auto emulator = std::make_unique<ckunix::UnixEmulator>(rig.world.ck());
  ckunix::UnixEmulator& emu = *emulator;
  rig.apps.push_back(std::move(emulator));
  cksrm::LaunchParams params;
  params.page_groups = 8;
  params.max_priority = 31;
  params.locked_kernel_object = true;
  EXPECT_TRUE(rig.world.srm().Launch(emu, params).ok());
  ck::CkApi api = rig.ApiFor(emu);
  emu.Start(api);
  return emu;
}

TEST(IdleSkipTest, UnixSleepWakesProcesses) {
  Scenario setup = [](Rig& rig) {
    ckunix::UnixEmulator& emu = AddUnix(rig);
    ck::CkApi api = rig.ApiFor(emu);
    for (const char* sleep_us : {"300", "700", "1900"}) {
      std::string source = std::string(R"(
          li   s0, 8
        again:
          li   a0, )") + sleep_us + R"(
          trap 20
          addi s0, s0, -1
          bne  s0, r0, again
          li   a0, 20000     ; long sleep: the thread descriptor unloads
          trap 20
          addi a0, r0, 0
          trap 17
      )";
      emu.Exec(api, MustAssemble(source.c_str()));
    }
  };
  Observed run = ExpectSkipExact(setup, WorldOptions(), 1200000);
  EXPECT_GT(run.stats.traps_forwarded, 24u);
}

// ---------------------------------------------------------------------------
// Tiered memory: the periodic promotion scan runs on whichever CPU reaches
// tier_next_scan_ first, and charges that CPU.
// ---------------------------------------------------------------------------

TEST(IdleSkipTest, TierPromotionScanRunsOnTime) {
  Scenario setup = [](Rig& rig) {
    ckunix::UnixEmulator& emu = AddUnix(rig);
    ck::CkApi api = rig.ApiFor(emu);
    emu.Exec(api, MustAssemble(R"(
          li   a0, 48
          trap 19            ; sbrk 48 pages
          mv   s1, a0
          li   s0, 10
        round:
          mv   t0, s1
          li   t2, 48
          li   t3, 4096
        touch:
          sw   s0, 0(t0)
          add  t0, t0, t3
          addi t2, t2, -1
          bne  t2, r0, touch
          li   a0, 1500
          trap 20
          addi s0, s0, -1
          bne  s0, r0, round
          addi a0, r0, 0
          trap 17
    )"));
  };
  WorldOptions options;
  options.ck.tier_dram_frames = 40;
  options.ck.tier_promote_period = 60013;
  Observed run = ExpectSkipExact(setup, options, 1000000);
  EXPECT_GT(run.stats.tier_scan_steps, 0u);
  EXPECT_GT(run.stats.tier_demotions, 0u);
}

// ---------------------------------------------------------------------------
// Quota windows roll on idle CPUs: a bursty over-quota kernel sleeps across
// window boundaries, so where each window starts decides when it degrades.
// ---------------------------------------------------------------------------

// Computes `burst` chunks, then sleeps `pause` cycles on an app event.
class Burster : public ck::NativeProgram {
 public:
  Burster(uint32_t burst, cksim::Cycles pause, uint64_t* work)
      : burst_(burst), pause_(pause), work_(work) {}
  ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
    ctx.Charge(2000);
    ++*work_;
    if (++steps_ % burst_ != 0) {
      return Outcome(ck::NativeOutcome::Action::kYield);
    }
    ck::ThreadId self = ctx.self_thread();
    ctx.api().ScheduleAfter(pause_, [self](ck::CkApi& later) { later.ResumeThread(self); });
    return Outcome(ck::NativeOutcome::Action::kBlock);
  }

 private:
  uint32_t burst_;
  cksim::Cycles pause_;
  uint64_t* work_;
  uint32_t steps_ = 0;
};

TEST(IdleSkipTest, QuotaWindowRollsOnIdleCpu) {
  Scenario setup = [](Rig& rig) {
    rig.apps.push_back(std::make_unique<ckapp::AppKernelBase>("rogue", 32));
    ckapp::AppKernelBase& rogue = *rig.apps.back();
    cksrm::LaunchParams params;
    params.page_groups = 1;
    params.cpu_percent[2] = 20;
    ASSERT_TRUE(rig.world.srm().Launch(rogue, params).ok());
    ckapp::AppKernelBase& other = AddApp(rig, "other");
    ck::CkApi rogue_api = rig.ApiFor(rogue);
    ck::CkApi other_api = rig.ApiFor(other);
    uint32_t rogue_space = rogue.CreateSpace(rogue_api);
    uint32_t other_space = other.CreateSpace(other_api);
    rogue.CreateNativeThread(rogue_api, rogue_space, rig.Make<Burster>(30, 150001, &rig.work), 10,
                             false, 2);
    other.CreateNativeThread(other_api, other_space, rig.Make<Burster>(6, 110017, &rig.work), 10,
                             false, 2);
  };
  WorldOptions options;
  options.ck.enforce_quotas = true;
  options.ck.quota_window = 50021;
  // Sparse deadlines: frequent ones would end most idle stretches before
  // the window roll, and a missing roll bound would go unseen.
  Observed run = ExpectSkipExact(setup, options, 1000000, 250013);
  EXPECT_GT(run.stats.quota_degradations, 0u);
}

// ---------------------------------------------------------------------------
// An all-idle machine: only the deadline bounds the skip.
// ---------------------------------------------------------------------------

TEST(IdleSkipTest, AllIdleMachineStopsAtEachDeadline) {
  ExpectSkipExact([](Rig&) {}, WorldOptions(), 300000);
}

TEST(IdleSkipTest, AllIdleMachineRunsAMillionCyclesInAFewTurns) {
  Rig skipped{WorldOptions()};
  skipped.world.machine().RunFor(1000000);
  EXPECT_LE(skipped.counter.turns, 16u);

  Rig stepped{WorldOptions()};
  while (stepped.world.machine().Now() < 1000000) {
    stepped.world.machine().Step();
  }
  EXPECT_EQ(skipped.world.ck().stats().idle_turns, stepped.world.ck().stats().idle_turns);
  EXPECT_EQ(stepped.counter.turns, stepped.world.ck().stats().idle_turns);
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(skipped.world.machine().cpu(c).clock(), stepped.world.machine().cpu(c).clock());
  }
}

}  // namespace
