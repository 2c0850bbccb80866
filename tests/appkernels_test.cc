// Application-specialized kernels: MP3D (locality), the database kernel
// (application-controlled replacement) and the real-time kernel (locking).

#include <gtest/gtest.h>

#include "src/appkernel/vspace.h"
#include "src/base/rng.h"
#include "src/db/db_kernel.h"
#include "src/mp3d/mp3d_kernel.h"
#include "src/rt/rt_kernel.h"
#include "tests/test_harness.h"

namespace {

using cktest::TestWorld;

// FindPage answers through a hash index over VSpace::pages. Records reach
// the map by plain assignment (the region helpers and the checkpoint restore
// path both do `pages[vaddr] = page`), so interleave such inserts, including
// overwrites of existing pages, with lookups across several index resizes,
// and require the same record as a search of the map.
TEST(VSpaceTest, FindPageMatchesMapAcrossInserts) {
  ckapp::VSpace sp;
  ckbase::Rng rng(17);
  // Three regions far apart plus the top of the address space.
  const cksim::VirtAddr kBases[] = {0x0, 0x40000000, 0x70000000, 0xfff00000};
  auto random_vaddr = [&] {
    return kBases[rng.Below(4)] + static_cast<cksim::VirtAddr>(rng.Below(160)) * cksim::kPageSize +
           static_cast<cksim::VirtAddr>(rng.Below(cksim::kPageSize));
  };
  for (uint32_t op = 0; op < 6000; ++op) {
    cksim::VirtAddr vaddr = random_vaddr();
    cksim::VirtAddr page_vaddr = vaddr & ~static_cast<cksim::VirtAddr>(cksim::kPageOffsetMask);
    if (rng.Chance(1, 4)) {
      ckapp::PageRecord page;
      page.backing_page = op;
      sp.pages[page_vaddr] = page;
    }
    auto it = sp.pages.find(page_vaddr);
    ckapp::PageRecord* expected = it == sp.pages.end() ? nullptr : &it->second;
    ckapp::PageRecord* found = sp.FindPage(vaddr);
    ASSERT_EQ(found, expected) << "op " << op << " vaddr " << std::hex << vaddr;
    if (found != nullptr) {
      EXPECT_EQ(found->backing_page, expected->backing_page);
    }
  }
  EXPECT_GT(sp.pages.size(), 400u);
  for (auto& [page_vaddr, page] : sp.pages) {
    ASSERT_EQ(sp.FindPage(page_vaddr + cksim::kPageSize - 1), &page);
  }
}

TEST(Mp3dTest, SimulationConservesParticles) {
  TestWorld world;
  ckmp3d::Mp3dConfig config;
  config.particles = 512;
  config.cells = 16;
  config.workers = 2;
  auto kernel = std::make_unique<ckmp3d::Mp3dKernel>(world.ck(), config);
  world.Launch(*kernel, /*page_groups=*/2);
  ck::CkApi api(world.ck(), kernel->self(), world.machine().cpu(0));
  kernel->Setup(api);

  kernel->RunSteps(3);
  EXPECT_EQ(kernel->steps_completed(), 3u);
  EXPECT_EQ(kernel->particle_updates(), 3u * 512u) << "every particle updated every step";
  EXPECT_GT(kernel->moves(), 0u) << "particles must migrate between cells";
}

TEST(Mp3dTest, LocalityModeAlsoCorrect) {
  TestWorld world;
  ckmp3d::Mp3dConfig config;
  config.particles = 512;
  config.cells = 16;
  config.workers = 2;
  config.placement = ckmp3d::Placement::kLocalityAware;
  auto kernel = std::make_unique<ckmp3d::Mp3dKernel>(world.ck(), config);
  world.Launch(*kernel, 2);
  ck::CkApi api(world.ck(), kernel->self(), world.machine().cpu(0));
  kernel->Setup(api);
  kernel->RunSteps(3);
  EXPECT_EQ(kernel->steps_completed(), 3u);
  EXPECT_EQ(kernel->particle_updates(), 3u * 512u);
}

TEST(Mp3dTest, ScatteredTouchesMorePagesPerSweep) {
  // The section 5.2 effect in miniature: after the particles mix, a scattered
  // sweep touches far more distinct pages than a locality-enforced sweep.
  auto run = [](ckmp3d::Placement placement) {
    TestWorld world;
    ckmp3d::Mp3dConfig config;
    config.particles = 16384;  // 128 pages of particles: exceeds the 64-entry TLB
    config.cells = 64;
    config.workers = 1;
    config.placement = placement;
    auto kernel = std::make_unique<ckmp3d::Mp3dKernel>(world.ck(), config);
    world.Launch(*kernel, 2);
    ck::CkApi api(world.ck(), kernel->self(), world.machine().cpu(0));
    kernel->Setup(api);
    // Let the particles mix, then measure TLB misses over later steps.
    kernel->RunSteps(3);
    world.machine().cpu(0).mmu().tlb().ResetStats();
    uint64_t misses_before = 0;
    for (uint32_t c = 0; c < world.machine().cpu_count(); ++c) {
      world.machine().cpu(c).mmu().tlb().ResetStats();
    }
    kernel->RunSteps(3);
    uint64_t misses = misses_before;
    for (uint32_t c = 0; c < world.machine().cpu_count(); ++c) {
      misses += world.machine().cpu(c).mmu().tlb().misses();
    }
    return misses;
  };

  uint64_t scattered = run(ckmp3d::Placement::kScattered);
  uint64_t local = run(ckmp3d::Placement::kLocalityAware);
  EXPECT_GT(scattered, local) << "locality enforcement must reduce TLB misses";
}

TEST(DbTest, ScanComputesCorrectSum) {
  TestWorld world;
  ckdb::DbConfig config;
  config.table_pages = 16;
  config.buffer_pages = 32;  // everything fits
  auto db = std::make_unique<ckdb::DbKernel>(world.ck(), config);
  world.Launch(*db, 2);
  ck::CkApi api(world.ck(), db->self(), world.machine().cpu(0));
  db->Setup(api);

  uint64_t rows = 16ull * 64;
  uint64_t expect = rows * (rows - 1) / 2;  // sum of 0..rows-1
  EXPECT_EQ(db->RunScan(), expect);
  EXPECT_EQ(db->query_stats().rows_read, rows);
}

TEST(DbTest, RepeatScanWithFittingBufferAllHits) {
  TestWorld world;
  ckdb::DbConfig config;
  config.table_pages = 16;
  config.buffer_pages = 32;
  auto db = std::make_unique<ckdb::DbKernel>(world.ck(), config);
  world.Launch(*db, 2);
  ck::CkApi api(world.ck(), db->self(), world.machine().cpu(0));
  db->Setup(api);
  db->RunScan();
  uint64_t misses_after_first = db->query_stats().buffer_misses;
  db->RunScan();
  EXPECT_EQ(db->query_stats().buffer_misses, misses_after_first)
      << "second scan of a fitting table takes no page-ins";
}

TEST(DbTest, MruBeatsLruForRepeatedScans) {
  // Classic sequential-flooding result: with buffer < table, LRU evicts each
  // page just before the next scan needs it (≈0 hits), MRU retains a stable
  // prefix. The application kernel owns the policy, so it can just fix this
  // (sections 1 and 3).
  auto scan_hits = [](ckdb::Replacement policy) {
    TestWorld world;
    ckdb::DbConfig config;
    config.table_pages = 48;
    config.buffer_pages = 32;
    config.policy = policy;
    auto db = std::make_unique<ckdb::DbKernel>(world.ck(), config);
    world.Launch(*db, 2);
    ck::CkApi api(world.ck(), db->self(), world.machine().cpu(0));
    db->Setup(api);
    // Buffer pool limit: constrain the frame pool to buffer_pages frames.
    // (The SRM granted 2 groups = 256 frames; trim to the experiment size.)
    while (db->frames().free_count() > config.buffer_pages) {
      db->frames().Allocate();  // park surplus frames
    }
    db->RunScan();  // cold
    uint64_t misses_cold = db->query_stats().buffer_misses;
    db->RunScan();
    db->RunScan();
    uint64_t misses_warm = db->query_stats().buffer_misses - misses_cold;
    return std::make_pair(misses_warm, misses_cold);
  };

  auto [lru_warm, lru_cold] = scan_hits(ckdb::Replacement::kLru);
  auto [mru_warm, mru_cold] = scan_hits(ckdb::Replacement::kMru);
  EXPECT_EQ(lru_cold, mru_cold) << "cold scans identical";
  EXPECT_LT(mru_warm, lru_warm) << "MRU must out-hit LRU on repeated scans";
  // LRU on a 48-page table with a 32-page pool re-misses every page.
  EXPECT_GE(lru_warm, 2u * 40u);
}

TEST(DbTest, PointLookupsWork) {
  TestWorld world;
  ckdb::DbConfig config;
  config.table_pages = 16;
  auto db = std::make_unique<ckdb::DbKernel>(world.ck(), config);
  world.Launch(*db, 2);
  ck::CkApi api(world.ck(), db->self(), world.machine().cpu(0));
  db->Setup(api);
  db->RunPointLookups(100);
  EXPECT_EQ(db->query_stats().rows_read, 100u);
  EXPECT_EQ(db->query_stats().queries, 1u);
}

TEST(RtTest, PeriodicTasksMeetDeadlinesUnlocked) {
  // On an otherwise idle machine even unlocked tasks meet deadlines.
  TestWorld world;
  ckrt::RtConfig config;
  config.lock_resources = false;
  auto rt = std::make_unique<ckrt::RtKernel>(world.ck(), config);
  world.Launch(*rt, 2);
  ck::CkApi api(world.ck(), rt->self(), world.machine().cpu(0));
  rt->Setup(api, {ckrt::RtTaskConfig{}});
  world.machine().RunFor(50 * ckrt::RtTaskConfig{}.period);
  const ckrt::RtTaskStats& stats = rt->task_stats(0);
  EXPECT_GE(stats.activations, 30u);
  // The first activation cold-faults the working set; later ones are clean.
  EXPECT_LE(stats.deadline_misses, 2u);
}

TEST(RtTest, LockedTaskSurvivesMappingPressure) {
  // A batch kernel thrashes the (small) mapping cache; the locked RT task's
  // working set must stay loaded and keep meeting deadlines.
  cktest::WorldOptions options;
  options.ck.mapping_slots = 64;  // tiny mapping cache: heavy interference
  TestWorld world(options);

  ckrt::RtConfig rt_config;
  rt_config.lock_resources = true;
  auto rt = std::make_unique<ckrt::RtKernel>(world.ck(), rt_config);
  {
    cksrm::LaunchParams params;
    params.page_groups = 2;
    params.max_priority = 30;
    params.lock_limits[static_cast<int>(ck::ObjectType::kMapping)] = 32;
    params.lock_limits[static_cast<int>(ck::ObjectType::kThread)] = 8;
    params.lock_limits[static_cast<int>(ck::ObjectType::kSpace)] = 2;
    params.locked_kernel_object = true;  // lock chains end at the kernel object
    ASSERT_TRUE(world.srm().Launch(*rt, params).ok());
  }
  ck::CkApi rt_api(world.ck(), rt->self(), world.machine().cpu(0));
  ckrt::RtTaskConfig task;
  task.working_set_pages = 8;
  task.cpu = 0;
  rt->Setup(rt_api, {task});

  // Batch kernel: touches hundreds of pages round-robin on another CPU.
  class Thrasher : public ck::NativeProgram {
   public:
    ck::NativeOutcome Step(ck::NativeCtx& ctx) override {
      for (int i = 0; i < 16; ++i) {
        ctx.LoadWord(0x70000000 + (cursor_ % 300) * cksim::kPageSize);
        ++cursor_;
      }
      ck::NativeOutcome outcome;
      outcome.action = ck::NativeOutcome::Action::kYield;
      return outcome;
    }
    uint32_t cursor_ = 0;
  };
  ckapp::AppKernelBase batch("batch", 64);
  cksrm::LaunchParams batch_params;
  batch_params.page_groups = 4;
  ASSERT_TRUE(world.srm().Launch(batch, batch_params).ok());
  ck::CkApi batch_api(world.ck(), batch.self(), world.machine().cpu(0));
  uint32_t batch_space = batch.CreateSpace(batch_api);
  batch.DefineZeroRegion(batch_space, 0x70000000, 300, /*writable=*/true);
  Thrasher thrasher;
  batch.CreateNativeThread(batch_api, batch_space, &thrasher, 10, false, /*cpu=*/1);

  world.machine().RunFor(60 * task.period);
  const ckrt::RtTaskStats& stats = rt->task_stats(0);
  EXPECT_GE(stats.activations, 40u);
  // The mapping cache is under heavy churn; the locked chain protects the
  // task's activation latency.
  EXPECT_EQ(stats.deadline_misses, 0u)
      << "locked working set must not take mapping-reload latency";
  EXPECT_GT(world.ck().stats().reclamations[static_cast<int>(ck::ObjectType::kMapping)], 100u)
      << "the batch kernel must actually thrash the mapping cache";
}

TEST(SrmTest, SwapOutAndSwapInAppKernel) {
  TestWorld world;
  ckapp::AppKernelBase app("swappee", 64);
  world.Launch(app, 2);
  ck::CkApi api(world.ck(), app.self(), world.machine().cpu(0));
  uint32_t space = app.CreateSpace(api);
  app.DefineZeroRegion(space, 0x40000000, 4, true);
  ASSERT_EQ(app.EnsureMappingLoaded(api, space, 0x40000000), ckbase::CkStatus::kOk);

  // Swap the whole kernel out: its kernel object and everything under it.
  ASSERT_EQ(world.srm().SwapOut(app), ckbase::CkStatus::kOk);
  EXPECT_TRUE(world.srm().IsSwappedOut(app));
  EXPECT_FALSE(world.ck().IsKernelLoaded(app.self()));

  // Swap back in: grants reapplied, new kernel id attached, records reload.
  ASSERT_EQ(world.srm().SwapIn(app), ckbase::CkStatus::kOk);
  EXPECT_FALSE(world.srm().IsSwappedOut(app));
  EXPECT_TRUE(world.ck().IsKernelLoaded(app.self()));
  ck::CkApi api2(world.ck(), app.self(), world.machine().cpu(0));
  EXPECT_EQ(app.EnsureMappingLoaded(api2, space, 0x40000000), ckbase::CkStatus::kOk);
}

TEST(SrmTest, GroupAccountingAndExhaustion) {
  cktest::WorldOptions options;
  options.memory_bytes = 4u << 20;  // 8 groups minus the page-table arena
  TestWorld world(options);
  uint32_t available = world.srm().free_groups();
  ASSERT_GT(available, 0u);

  ckapp::AppKernelBase a("a", 16), b("b", 16);
  cksrm::LaunchParams params;
  params.page_groups = available;  // take everything
  ASSERT_TRUE(world.srm().Launch(a, params).ok());
  EXPECT_EQ(world.srm().free_groups(), 0u);

  cksrm::LaunchParams params_b;
  params_b.page_groups = 1;
  EXPECT_FALSE(world.srm().Launch(b, params_b).ok()) << "no groups left";
}

TEST(SrmTest, IoQuotaDisconnects) {
  TestWorld world;
  ckapp::AppKernelBase app("netty", 16);
  world.Launch(app, 1);
  world.srm().SetIoQuota(app, 100);
  EXPECT_TRUE(world.srm().RecordIo(app, 60));
  EXPECT_FALSE(world.srm().RecordIo(app, 60)) << "over quota: disconnected";
  EXPECT_TRUE(world.srm().IsIoDisconnected(app));
  world.srm().ResetIoWindow();
  EXPECT_FALSE(world.srm().IsIoDisconnected(app));
}

}  // namespace
