// perfbench: runs one workload as repeated closed batches for --seconds and
// prints every metric it measured as one JSON record line.
//
//   perfbench --workload unix_paging|netboot|failover --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// --trace 0 runs untraced batches (the end-to-end numbers). --trace 1
// alternates untraced batches and traced batches with the layer probes
// armed, then (cluster workloads) runs batches on the host-parallel cluster
// driver; it reports the per-layer metrics and the tracing overhead, and
// fails if a traced or parallel digest differs from the untraced one.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/bench.h"

namespace {

using pb::Batch;
using pb::Metric;
using pb::Metrics;

// Linear interpolation between closest ranks, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  double rank = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c >= 0x20) ? c : ' ';
  }
  return out + "\"";
}

// FNV-1a over "name=value;" of every deterministic metric, in name order.
uint64_t Digest(const Metrics& det) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [name, m] : det) {
    for (char c : name + "=" + Num(m.value) + ";") {
      h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Median of each named metric over batches.
Metrics MedianOf(const std::vector<Batch>& batches, Metrics Batch::*field) {
  Metrics out;
  for (const auto& [name, m] : batches.front().*field) {
    std::vector<double> values;
    for (const Batch& b : batches) {
      values.push_back((b.*field).at(name).value);
    }
    out[name] = {Quantile(values, 0.5), m.unit};
  }
  return out;
}

void WriteSpans(const std::string& path, const pb::SpanLog& log,
                const std::vector<Batch>& traced) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const auto& spans = log.spans();
  std::vector<int64_t> child(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child[s.parent] += s.end - s.start;
    }
  }
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": %s, \"run\": %d, \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld}",
                 i == 0 ? "" : ",", i, Quote(s.name).c_str(), s.run, s.parent,
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 static_cast<long long>(s.end - s.start - child[i]));
  }
  std::fprintf(f, "\n], \"aggregates\": {");
  std::map<std::string, pb::Agg> merged;
  for (const Batch& b : traced) {
    for (const auto& [name, agg] : b.aggs) {
      merged[name].Merge(agg);
    }
  }
  bool first = true;
  for (const auto& [name, agg] : merged) {
    std::fprintf(f, "%s\n  %s: {\"count\": %llu, \"total_ns\": %lld, \"log2_ns_buckets\": [",
                 first ? "" : ",", Quote(name).c_str(), static_cast<unsigned long long>(agg.count),
                 static_cast<long long>(agg.total_ns));
    for (int i = 0; i < 48; ++i) {
      std::fprintf(f, "%s%llu", i == 0 ? "" : ", ", static_cast<unsigned long long>(agg.buckets[i]));
    }
    std::fprintf(f, "]}");
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  std::fclose(f);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload unix_paging|netboot|failover --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to report from a build without NDEBUG\n");
  return 2;
#endif
  // Keep every batch's machine memory on the heap and keep freed heap
  // mapped, so each batch after the first reuses faulted-in pages instead of
  // paying the host kernel's page faults at a load-dependent cost; glibc's
  // adaptive threshold would otherwise switch modes after the first batch.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string workload, spans_path;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  Batch (*run)(uint64_t, const pb::Mode&) = nullptr;
  uint32_t machines = 1;
  if (workload == "unix_paging") {
    run = pb::RunUnixPaging;
  } else if (workload == "netboot") {
    run = pb::RunNetboot;
    machines = 3;
  } else if (workload == "failover") {
    run = pb::RunFailover;
    machines = 2;
  } else {
    return Usage();
  }
  bool cluster = machines > 1;
  // The end-to-end batches of the cluster workloads run on the serial
  // reference driver. On a shared host the parallel driver's wall time is
  // set by how fast the host wakes its worker threads at each window
  // barrier, which swings by more than 2x between runs; the serial driver
  // gives bit-identical simulated results and is the faster one here. The
  // traced run measures the parallel driver (one host thread per machine,
  // when the host has that many cores) and checks its digest.
  unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  bool check_parallel = trace && cluster && machines <= nproc;
  constexpr int kParallelBatches = 3;

  int64_t start = pb::NowNs();
  auto elapsed = [&] { return static_cast<double>(pb::NowNs() - start) / 1e9; };
  std::vector<Batch> batches;  // untraced: the end-to-end numbers
  std::vector<Batch> traced;
  std::vector<Batch> parallel;
  std::vector<std::string> problems;
  pb::SpanLog spans;
  // Peak RSS is read after the first batch: one batch's footprint, which is
  // what a single simulation costs. Later batches only reuse the heap, and
  // how much of it they fragment varies between runs.
  double peak_rss_mb = 0;
  auto untraced = [&] {
    batches.push_back(run(seed, pb::Mode{false, nullptr}));
    if (batches.size() == 1) {
      struct rusage usage;
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  };
  if (!trace) {
    while (batches.size() < 3 || (elapsed() < seconds && batches.size() < 10000)) {
      untraced();
    }
  } else {
    // Untraced and traced batches alternate, so the tracing overhead is
    // measured under the same host conditions.
    while (traced.size() < 2 || (elapsed() < seconds && traced.size() < 10000)) {
      untraced();
      spans.set_run(static_cast<int>(traced.size()));
      traced.push_back(run(seed, pb::Mode{false, &spans}));
    }
    for (int i = 0; check_parallel && i < kParallelBatches; ++i) {
      parallel.push_back(run(seed, pb::Mode{true, nullptr}));
    }
  }

  // Simulated and count metrics must repeat exactly: across batches, between
  // traced and untraced batches, and between the serial and parallel drivers.
  uint64_t digest = Digest(batches.front().det);
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> notes;
  for (const std::vector<Batch>* set : {&batches, &traced, &parallel}) {
    for (const Batch& b : *set) {
      if (Digest(b.det) != digest) {
        problems.push_back("digest " + Hex(Digest(b.det)) + " differs from " + Hex(digest) +
                           (set == &parallel ? " on the parallel driver" : ""));
      }
      if (set == &traced && Digest(b.probe_counts) != Digest(traced.front().probe_counts)) {
        problems.push_back("probe counts differ between traced batches");
      }
      attempted += b.ops;
      failed += b.errors;
      notes.insert(notes.end(), b.error_notes.begin(), b.error_notes.end());
    }
  }
  failed += problems.size();
  notes.insert(notes.end(), problems.begin(), problems.end());
  std::vector<std::string> shape = (trace ? traced : batches).front().shape_failures;

  // ---- the record ----
  auto walls = [](const std::vector<Batch>& set) {
    std::vector<double> v;
    for (const Batch& b : set) {
      v.push_back(b.wall_s);
    }
    return v;
  };
  std::vector<double> wall = walls(batches), setup;
  for (const Batch& b : batches) {
    setup.push_back(b.setup_s);
  }
  Metrics host;
  // This host alternates between an uncontended mode and one about 1.6x
  // slower (co-tenant load), on a scale of seconds. The 90th percentile of
  // the batch times sits in the contended mode, which repeats across runs;
  // the median follows the mix of the two modes and is kept for reference.
  host["wall_s"] = {Quantile(wall, 0.9), "s"};
  host["wall_s.median"] = {Quantile(wall, 0.5), "s"};
  host["wall_s.p10"] = {Quantile(wall, 0.1), "s"};
  host["setup_s"] = {Quantile(setup, 0.5), "s"};
  host["peak_rss_mb"] = {peak_rss_mb, "MB"};
  Metrics sim = batches.front().det;
  if (trace) {
    host.merge(MedianOf(traced, &Batch::traced));
    sim.merge(traced.front().probe_counts);
    double traced_wall = Quantile(walls(traced), 0.9);
    host["trace.wall_s"] = {traced_wall, "s"};
    host["trace.overhead_s"] = {traced_wall - Quantile(wall, 0.9), "s"};
    host["sim.cluster.parallel_speedup"] = {
        parallel.empty() ? 0.0 : Quantile(wall, 0.5) / Quantile(walls(parallel), 0.5), "ratio"};
    for (const auto& [name, unit] : {std::pair{"sim.step_overhead_ns", "ns"},
                                     std::pair{"sim.cluster.ns_per_window", "ns"},
                                     std::pair{"sim.cluster.turn_share", "ratio"},
                                     std::pair{"ckpt.checkpoint_ns", "ns"},
                                     std::pair{"ckpt.restore_ns", "ns"}}) {
      host.emplace(name, Metric{0.0, unit});
    }
  }
  // Layer counters a workload does not exercise read zero, so every run
  // reports the same metric names.
  for (const auto& [name, unit] :
       {std::pair{"appkernel.faults", "count"}, std::pair{"appkernel.pages_out", "count"},
        std::pair{"unixemu.syscalls", "count"}, std::pair{"ckpt.bytes", "bytes"},
        std::pair{"ckpt.checkpoint_sim_us", "us"}, std::pair{"fs.hits", "count"},
        std::pair{"fs.misses", "count"}, std::pair{"fs.readahead_useful_ratio", "ratio"},
        std::pair{"fs.demand_stalls", "count"}, std::pair{"fs.stalls_per_miss", "count"},
        std::pair{"fs.invalidations", "count"}, std::pair{"fs.pages_shipped", "count"},
        std::pair{"sim.cluster.windows", "count"}, std::pair{"sim.wire.messages", "count"}}) {
    sim.emplace(name, Metric{0.0, unit});
  }

  const char* driver = !cluster         ? "none"
                       : check_parallel ? "serial; parallel checked"
                                        : "serial";
  std::printf("perfbench %s seed=%llu trace=%d: %zu untraced + %zu traced batches, driver=%s, "
              "nproc=%u\n",
              workload.c_str(), static_cast<unsigned long long>(seed), trace ? 1 : 0,
              batches.size(), traced.size(), driver, nproc);
  for (const Metrics* set : {&host, &sim}) {
    for (const auto& [name, m] : *set) {
      std::printf("  %-32s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("fault latency samples: %.0f\n", sim["fault.samples"].value);
  for (const std::string& s : shape) {
    std::printf("shape: %s\n", s.c_str());
  }
  for (const std::string& n : notes) {
    std::printf("error: %s\n", n.c_str());
  }
  std::printf("digest: %s\n", Hex(digest).c_str());
  if (trace && !spans_path.empty()) {
    WriteSpans(spans_path, spans, traced);
  }

  std::string json = "{\"workload\": " + Quote(workload) + ", \"seed\": " + std::to_string(seed) +
                     ", \"trace\": " + (trace ? "1" : "0") + ", \"digest\": " +
                     Quote(Hex(digest)) + ", \"batches\": " + std::to_string(batches.size()) +
                     ", \"traced_batches\": " + std::to_string(traced.size()) +
                     ", \"context\": {\"nproc\": " + std::to_string(nproc) +
                     ", \"build\": \"Release (NDEBUG)\", \"cluster_driver\": " + Quote(driver) +
                     "}, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"shape_failures\": [";
  for (size_t i = 0; i < shape.size(); ++i) {
    json += (i ? ", " : "") + Quote(shape[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const auto& [set, kind] : {std::pair{&host, "host"}, std::pair{&sim, "sim"}}) {
    for (const auto& [name, m] : *set) {
      json += std::string(first ? "" : ", ") + Quote(name) + ": {\"value\": " + Num(m.value) +
              ", \"unit\": " + Quote(m.unit) + ", \"kind\": \"" + kind + "\"}";
      first = false;
    }
  }
  json += "}}";
  std::printf("record: %s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}
