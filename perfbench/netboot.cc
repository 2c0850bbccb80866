// netboot: one file server and kClients diskless clients (3 MPMs) on the
// cluster driver. Each client scans a tree with more files than its
// ClientFileCache has entries, for kRounds rounds. Between rounds the server
// rewrites seed-chosen files, so version-invalidation pushes sit beside the
// reads. Wire, bulk transfer, read-ahead, fs polling and cluster barriers do
// the work; there is almost no guest execution and no mapping reclaim.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/fs/fs_cluster.h"

namespace pb {
namespace {

constexpr uint32_t kClients = 2;
constexpr uint32_t kFiles = 24;
constexpr uint32_t kCacheEntries = 16;
constexpr uint32_t kFilePages = 8;
constexpr uint32_t kRounds = 6;
constexpr uint32_t kRewritesPerRound = 3;
constexpr cksim::Cycles kMaxCycles = 400000000;

uint32_t InitialLen() { return kFilePages * cksim::kPageSize - cksim::kPageSize / 2; }

struct FileState {
  uint32_t version = 1;
  uint32_t len = InitialLen();
};
using Tree = std::vector<FileState>;  // indexed by file; fileid = index + 1

// Host reference of FileScanWorkload's checksum: every byte of every file,
// in scan order, as the server holds it during that round.
uint64_t ExpectedChecksum(const std::vector<Tree>& rounds) {
  uint64_t sum = 0xcbf29ce484222325ull;
  for (const Tree& tree : rounds) {
    for (uint32_t f = 0; f < kFiles; ++f) {
      for (uint32_t i = 0; i < tree[f].len; ++i) {
        sum = (sum ^ ckfs::FileByte(f + 1, tree[f].version, i)) * 0x100000001b3ull;
      }
    }
  }
  return sum;
}

}  // namespace

Batch RunNetboot(uint64_t seed, const Mode& mode) {
  Batch b;
  int64_t t0 = NowNs();
  Scoped setup_span(mode.spans, "setup");

  // Rewrite plan: after each round, kRewritesPerRound distinct files among
  // the kCacheEntries most recently scanned (so every client holds them and
  // observes the invalidation), each rewritten whole under the next version
  // and grown by a seed-chosen length. trees[r] is the tree during round r;
  // trees[kRounds] is the final one.
  Rng rng(seed ^ 0x6e6574626f6f7421ull);
  std::vector<std::vector<uint32_t>> rewrites(kRounds);
  std::vector<Tree> trees(kRounds + 1, Tree(kFiles));
  for (uint32_t r = 0; r < kRounds; ++r) {
    std::vector<uint32_t> recent;
    for (uint32_t f = kFiles - kCacheEntries; f < kFiles; ++f) {
      recent.push_back(f);
    }
    rng.Shuffle(recent);
    rewrites[r].assign(recent.begin(), recent.begin() + kRewritesPerRound);
    trees[r + 1] = trees[r];
    for (uint32_t f : rewrites[r]) {
      trees[r + 1][f].version++;
      trees[r + 1][f].len += rng.Below(2 * cksim::kPageSize);
    }
  }

  ckfs::FsClusterConfig config;
  config.clients = kClients;
  config.files = kFiles;
  config.file_pages = kFilePages;
  config.scan_rounds = 1;
  config.cache.entries = kCacheEntries;
  config.parallel = mode.parallel;
  ckfs::FsCluster world(config);
  uint32_t machines = kClients + 1;
  std::vector<SelfTimer> timers(machines);
  std::vector<std::unique_ptr<TurnProbe>> probes;
  std::vector<ck::CacheKernel*> kernels = {&world.server_ck()};
  std::vector<cksim::Machine*> all_machines = {&world.server_machine()};
  for (uint32_t c = 0; c < kClients; ++c) {
    kernels.push_back(&world.client_ck(c));
    all_machines.push_back(&world.client_machine(c));
  }
  if (mode.traced()) {
    for (uint32_t m = 0; m < machines; ++m) {
      probes.push_back(std::make_unique<TurnProbe>(*all_machines[m], *kernels[m], timers[m]));
    }
  }
  b.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  setup_span.Close();

  // ---- measured phase ----
  auto latest = [&] {
    cksim::Cycles t = 0;
    for (cksim::Machine* m : all_machines) {
      t = std::max(t, LatestClock(*m));
    }
    return t;
  };
  auto wire = [&] {
    uint64_t sum = 0;
    for (uint32_t c = 0; c < kClients; ++c) {
      sum += world.WireTraffic(c);
    }
    return sum;
  };
  auto invalidations = [&] {
    uint64_t sum = 0;
    for (uint32_t c = 0; c < kClients; ++c) {
      sum += world.cache(c).stats().invalidations;
    }
    return sum;
  };
  cksim::Cycles sim_start = latest();
  int64_t cluster_ns = 0;
  int64_t t1 = NowNs();
  for (uint32_t r = 0; r < kRounds; ++r) {
    Scoped round_span(mode.spans, "fs.round");
    if (r > 0) {
      for (uint32_t c = 0; c < kClients; ++c) {
        world.workload(c).Resume(1);
      }
    }
    uint64_t wire_before = wire();
    bool scanned;
    {
      Scoped scan_span(mode.spans, "fs.scan");
      scanned = TimedCluster(mode, cluster_ns, [&] { return world.Run(kMaxCycles); });
    }
    if (!scanned) {
      b.Error("round " + std::to_string(r) + ": scan timed out");
      break;
    }
    b.Shape(wire() > wire_before, "netboot round " + std::to_string(r) + " moved no wire traffic");

    Scoped inval_span(mode.spans, "fs.rewrite");
    uint64_t inval_before = invalidations();
    ck::CkApi api = world.ServerApi();
    for (uint32_t f : rewrites[r]) {
      const FileState& next = trees[r + 1][f];
      std::vector<uint8_t> bytes = ckfs::FileBytes(f + 1, next.version, next.len);
      world.server().WriteLocal(f + 1, 0, bytes.data(), next.len, &api);
    }
    // Wait until no client holds a stale version of a rewritten file.
    bool pushed = TimedCluster(mode, cluster_ns, [&] {
      return world.RunUntil(
          [&] {
            for (uint32_t c = 0; c < kClients; ++c) {
              for (uint32_t f : rewrites[r]) {
                uint32_t v = world.cache(c).CachedVersion(f + 1);
                if (v != 0 && v != world.server().file_version(f + 1)) {
                  return false;
                }
              }
            }
            return true;
          },
          kMaxCycles);
    });
    if (!pushed) {
      b.Error("round " + std::to_string(r) + ": invalidation push timed out");
      break;
    }
    b.Shape(invalidations() > inval_before,
            "netboot round " + std::to_string(r) + " observed no invalidations");
  }
  b.wall_s = static_cast<double>(NowNs() - t1) / 1e9;

  // ---- verification against the host reference ----
  std::vector<Tree> scanned(trees.begin(), trees.end() - 1);
  uint64_t expected_sum = ExpectedChecksum(scanned);
  uint64_t expected_pages = 0;
  for (const Tree& tree : scanned) {
    for (const FileState& file : tree) {
      expected_pages += (file.len + cksim::kPageSize - 1) / cksim::kPageSize;
    }
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    const ckfs::FileScanWorkload& w = world.workload(c);
    if (w.failed() || !w.done()) {
      b.Error("client " + std::to_string(c) + " scan failed or unfinished");
    }
    if (w.checksum() != expected_sum) {
      b.Error("client " + std::to_string(c) + " checksum mismatch");
    }
    if (w.pages_read() != expected_pages) {
      b.Error("client " + std::to_string(c) + " read " + std::to_string(w.pages_read()) +
              " pages, expected " + std::to_string(expected_pages));
    }
  }
  for (uint32_t f = 0; f < kFiles; ++f) {
    if (world.server().file_version(f + 1) != trees[kRounds][f].version) {
      b.Error("file " + std::to_string(f) + " has the wrong server version");
    }
  }
  // Every client holds every rewritten file when its push arrives.
  uint64_t expected_invalidations = static_cast<uint64_t>(kClients) * kRounds * kRewritesPerRound;
  uint64_t observed = invalidations();
  if (observed != expected_invalidations) {
    b.Error("observed " + std::to_string(observed) + " invalidations, expected " +
            std::to_string(expected_invalidations));
  }
  b.ops = kClients * expected_pages + expected_invalidations;

  Metrics& d = b.det;
  AddKernelMetrics(kernels, d);
  ckfs::FsClientStats fs;
  for (uint32_t c = 0; c < kClients; ++c) {
    const ckfs::FsClientStats& s = world.cache(c).stats();
    fs.hits += s.hits;
    fs.misses += s.misses;
    fs.readahead_issued += s.readahead_issued;
    fs.readahead_useful += s.readahead_useful;
    fs.demand_stalls += s.demand_stalls;
  }
  uint64_t wire_messages = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    wire_messages += world.client_device(c).packets_sent() + world.client_device(c).bulk_sent() +
                     world.server_device(c).packets_sent() + world.server_device(c).bulk_sent();
  }
  d["sim_ms"] = {SimMs(sim_start, latest()), "ms"};
  d["ops"] = {static_cast<double>(b.ops), "count"};
  d["fs.hits"] = {static_cast<double>(fs.hits), "count"};
  d["fs.misses"] = {static_cast<double>(fs.misses), "count"};
  d["fs.readahead_useful_ratio"] = {
      fs.readahead_issued == 0 ? 0.0
                               : static_cast<double>(fs.readahead_useful) / fs.readahead_issued,
      "ratio"};
  d["fs.demand_stalls"] = {static_cast<double>(fs.demand_stalls), "count"};
  d["fs.stalls_per_miss"] = {
      fs.misses == 0 ? 0.0 : static_cast<double>(fs.demand_stalls) / fs.misses, "count"};
  d["fs.invalidations"] = {static_cast<double>(observed), "count"};
  d["fs.pages_shipped"] = {static_cast<double>(world.server().fs_stats().pages_shipped), "count"};
  d["sim.cluster.windows"] = {static_cast<double>(world.cluster().windows_run()), "count"};
  d["sim.wire.messages"] = {static_cast<double>(wire_messages), "count"};
  b.Shape(d["ck.mapping.reclamations"].value == 0, "netboot reclaims mappings");

  if (mode.traced()) {
    std::vector<const TurnProbe*> p;
    std::vector<const SelfTimer*> t;
    for (uint32_t m = 0; m < machines; ++m) {
      p.push_back(probes[m].get());
      t.push_back(&timers[m]);
    }
    AddProbeMetrics(p, t, {}, d, b);
    AddClusterMetrics(p, cluster_ns, world.cluster().windows_run(), b);
    b.Shape(b.probe_counts["ck.turns.idle_share"].value > 0.5, "netboot turns mostly busy");
  }
  return b;
}

}  // namespace pb
