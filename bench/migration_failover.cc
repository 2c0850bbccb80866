// X4: checkpoint, migration and failover cost vs working-set size
// (docs/CHECKPOINT.md; EXPERIMENTS.md row X4).
//
// The quiesce step is the Figure 6 dependency-ordered writeback cascade (the
// kernel-object unload walks every space, thread and mapping -- the same
// cascade measured by `fig6_dependency`), so checkpoint latency has a fixed
// cascade component plus a per-resident-page capture component. This bench
// sweeps the working set and reports, per size:
//   * image size (what migration ships / the stable store holds),
//   * quiesce+reload alone (SwapOut+SwapIn, no capture),
//   * full checkpoint (quiesce + capture + reload) in simulated us and in
//     host wall ns (the implementation's own cost),
//   * restore on a fresh machine,
//   * live migration end-to-end over the 266 Mb/s fiber-channel bulk path,
//   * failover (checkpoint-to-store, restore-from-store).
// Exits 1 when the sweep loses its shape: quiesce must be flat, and image
// size, checkpoint, restore, migrate and failover must grow linearly.

#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/image.h"
#include "src/sim/cluster.h"
#include "src/sim/devices.h"

namespace {

constexpr cksim::VirtAddr kBase = 0x40000000;

// Launch `app` and make `pages` resident dirty pages.
void BuildWorkingSet(ckbench::World& world, ckapp::AppKernelBase& app, uint32_t pages) {
  world.Launch(app, /*page_groups=*/4);
  ck::CkApi api = world.ApiFor(app);
  uint32_t sp = app.CreateSpace(api);
  app.DefineZeroRegion(sp, kBase, pages, /*writable=*/true);
  for (uint32_t p = 0; p < pages; ++p) {
    uint32_t value = 0x1000 + p;
    app.WriteGuest(api, sp, kBase + p * cksim::kPageSize, &value, 4);
  }
}

struct Row {
  uint32_t pages = 0;
  size_t image_bytes = 0;
  double quiesce_us = 0;
  double checkpoint_us = 0;
  double restore_us = 0;
  double migrate_us = 0;
  double failover_us = 0;
  double checkpoint_host_ns = 0;
};

Row Run(uint32_t pages) {
  Row row;
  row.pages = pages;

  // Source kernel.
  ckbench::World a;
  ckapp::AppKernelBase app_a("ws", 512);
  BuildWorkingSet(a, app_a, pages);

  // Quiesce + reload alone: the Fig. 6 unload cascade and the grant re-apply,
  // without any capture I/O.
  row.quiesce_us = ckbench::ToUs(ckbench::MeasureCycles(a.machine().cpu(0), [&] {
    a.srm().SwapOut(app_a);
    a.srm().SwapIn(app_a);
  }));

  // Full checkpoint.
  ckckpt::CkptImage image;
  row.checkpoint_host_ns = ckbench::MeasureHostNs([&] {
    row.checkpoint_us = ckbench::ToUs(ckbench::MeasureCycles(a.machine().cpu(0), [&] {
      a.srm().Checkpoint(app_a, &image);
    }));
  });
  row.image_bytes = image.SizeBytes();

  // Failover, capture side (adds the stable-store transfer to a checkpoint).
  cksim::StableStore store;
  ckbench::MeasureCycles(a.machine().cpu(0), [&] {
    a.srm().CheckpointToStore(app_a, store, "ws");
  });

  // Restore on a fresh machine.
  {
    ckbench::World b;
    ckapp::AppKernelBase app_b("ws", 512);
    std::string error;
    row.restore_us = ckbench::ToUs(ckbench::MeasureCycles(b.machine().cpu(0), [&] {
      if (b.srm().Restore(app_b, image, ckckpt::RestoreOptions{}, &error) !=
          ckbase::CkStatus::kOk) {
        ckbench::Note("restore FAILED: " + error);
      }
    }));
  }

  // Failover, recovery side.
  {
    ckbench::World c;
    ckapp::AppKernelBase app_c("ws", 512);
    std::string error;
    row.failover_us = ckbench::ToUs(ckbench::MeasureCycles(c.machine().cpu(0), [&] {
      if (c.srm().RestoreFromStore(app_c, store, "ws", ckckpt::RestoreOptions{}, &error) !=
          ckbase::CkStatus::kOk) {
        ckbench::Note("failover restore FAILED: " + error);
      }
    }));
  }

  // Live migration end-to-end: quiesce + capture + 266 Mb/s bulk transfer +
  // restore + resume on the peer, measured on the target machine's clock.
  // Both machines run under the conservative cluster driver; AcceptMigration
  // is polled at window barriers, where cross-machine state is quiescent.
  {
    ckbench::World src, dst;
    uint32_t group_s = src.srm().ReserveGroups(1).value();
    uint32_t group_d = dst.srm().ReserveGroups(1).value();
    cksim::FiberChannelDevice fc_s(src.machine().memory(), &src.ck(),
                                   group_s * cksim::kPageGroupBytes, 4, 4, 2500);
    cksim::FiberChannelDevice fc_d(dst.machine().memory(), &dst.ck(),
                                   group_d * cksim::kPageGroupBytes, 4, 4, 2500);
    cksim::Cluster cluster;
    cluster.AddMachine(&src.machine());
    cluster.AddMachine(&dst.machine());
    cluster.Link(fc_s, fc_d);
    src.machine().AttachDevice(&fc_s);
    dst.machine().AttachDevice(&fc_d);

    ckapp::AppKernelBase app_s("ws", 512), app_d("ws", 512);
    BuildWorkingSet(src, app_s, pages);
    // Bring the target's clock up to the source's before the transfer starts
    // (the bulk due-time is stamped with the source's send time; the cluster
    // keeps the clocks within a window of each other from here on).
    while (dst.machine().Now() < src.machine().Now()) {
      dst.machine().Step();
    }

    cksim::Cycles start = dst.machine().Now();
    src.srm().Migrate(app_s, fc_s);
    std::string error;
    ckbase::CkStatus accepted = ckbase::CkStatus::kRetry;
    cluster.RunUntilDone(
        [&] {
          accepted = dst.srm().AcceptMigration(fc_d, app_d, ckckpt::RestoreOptions{}, &error);
          return accepted != ckbase::CkStatus::kRetry;
        },
        cksim::Cycles{500000000});
    if (accepted != ckbase::CkStatus::kOk) {
      ckbench::Note("migration FAILED: " + error);
    }
    row.migrate_us = ckbench::ToUs(dst.machine().Now() - start);
  }

  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ck::ObsSession obs(argc, argv);
  ckbench::ObsSlot() = &obs;

  ckbench::Title("X4: checkpoint / migration / failover vs working set");
  ckbench::Note("quiesce = SwapOut+SwapIn (the Fig. 6 writeback cascade, no capture);");
  ckbench::Note("migrate = Migrate() to AcceptMigration()==kOk on the target machine's clock");
  ckbench::Note("          (266 Mb/s bulk-wire dominated; capture bills the source CPU).");
  ckbench::Rule();
  std::printf("  %-8s %10s %10s %12s %10s %10s %10s %14s\n", "pages", "image KB", "quiesce",
              "checkpoint", "restore", "migrate", "failover", "chkpt host ns");
  std::vector<Row> rows;
  for (uint32_t pages : {16u, 64u, 128u, 256u}) {
    Row row = Run(pages);
    std::printf("  %-8u %10.1f %10.1f %12.1f %10.1f %10.1f %10.1f %14.0f\n", row.pages,
                row.image_bytes / 1024.0, row.quiesce_us, row.checkpoint_us, row.restore_us,
                row.migrate_us, row.failover_us, row.checkpoint_host_ns);
    rows.push_back(row);
  }
  ckbench::Rule();
  ckbench::Note("all simulated columns in us; host column is wall-clock ns of Checkpoint().");

  // Shape of the sweep (EXPERIMENTS.md X4): the cascade is a fixed cost and
  // everything that moves page contents is linear in the working set.
  ckbench::ShapeGate gate;
  bool flat_quiesce = true;
  for (const Row& row : rows) {
    flat_quiesce = flat_quiesce && row.quiesce_us == rows[0].quiesce_us;
  }
  gate.Check("quiesce is the same at every working-set size", flat_quiesce);
  struct Column {
    const char* name;
    double (*value)(const Row&);
  };
  const Column columns[] = {
      {"image KB", [](const Row& r) { return r.image_bytes / 1024.0; }},
      {"checkpoint", [](const Row& r) { return r.checkpoint_us; }},
      {"restore", [](const Row& r) { return r.restore_us; }},
      {"migrate", [](const Row& r) { return r.migrate_us; }},
      {"failover", [](const Row& r) { return r.failover_us; }},
  };
  const Row& first = rows.front();
  for (const Column& col : columns) {
    bool increasing = true;
    for (size_t i = 1; i < rows.size(); ++i) {
      increasing = increasing && col.value(rows[i]) > col.value(rows[i - 1]);
    }
    gate.Check((std::string(col.name) + " strictly increases with pages").c_str(), increasing);
    auto slope = [&](const Row& to) {
      return (col.value(to) - col.value(first)) / (to.pages - first.pages);
    };
    double short_slope = slope(rows[1]);
    double long_slope = slope(rows.back());
    gate.Check((std::string(col.name) + " is linear in pages (16->64 slope within 5% of 16->256)")
                   .c_str(),
               std::abs(short_slope - long_slope) <= 0.05 * std::abs(long_slope));
  }
  return gate.exit_code();
}
