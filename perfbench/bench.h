// Shared pieces of the end-to-end benchmark: metrics, the seeded generator,
// and the probes that time calls into each layer from outside src/.
//
// Every probe sits at a public boundary of a layer:
//   * TurnProbe is a cksim::MachineClient installed with Machine::AttachKernel;
//     it forwards CacheKernel::OnCpuTurn and classifies each turn as idle or
//     busy from the CkStats::idle_turns delta;
//   * TimedUnix subclasses ckunix::UnixEmulator and times HandleFault,
//     HandleTrap and OnMappingWriteback;
//   * SpanLog records phases and coordinator-side layer calls
//     (Cluster::RunUntilDone, Srm::CheckpointToStore/RestoreFromStore).
// Probes are only armed in a traced run; end-to-end metrics come from
// untraced runs.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/ck/cache_kernel.h"
#include "src/sim/machine.h"
#include "src/unixemu/unix_emulator.h"

namespace pb {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64: the only source of randomness; every input derives from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Below(static_cast<uint32_t>(i))]);
    }
  }

 private:
  uint64_t state_;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Host-time layers, named after src/ modules. kDriver is the simulation
// driver itself (Machine::Step outside the turn, cluster windows).
enum Layer { kDriver, kCk, kAppKernel, kUnixEmu, kCkpt, kLayerCount };
const char* LayerName(int layer);

// Count, total and a log2 histogram of call durations.
struct Agg {
  uint64_t count = 0;
  int64_t total_ns = 0;
  uint64_t buckets[48] = {};
  void Add(int64_t ns);
  void Merge(const Agg& other);
  double MeanNs() const { return count == 0 ? 0.0 : static_cast<double>(total_ns) / count; }
};

// Per-thread self-time accounting: a layer's self time is its call's
// duration minus the time of the calls it made into other probed layers.
// One instance per machine (touched only by the thread running that machine)
// plus one for the coordinating thread.
class SelfTimer {
 public:
  void Enter(int layer) { stack_.push_back(Frame{layer, NowNs(), 0}); }
  int64_t Exit();
  int64_t self_ns[kLayerCount] = {};

 private:
  struct Frame {
    int layer;
    int64_t start;
    int64_t child;
  };
  std::vector<Frame> stack_;
};

// Coordinator-thread spans: name, start, end, parent, run id. Kept in memory
// and written out when the benchmark ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    int parent = -1;
    int run = 0;
  };
  int Begin(const std::string& name);
  void End(int id);
  void set_run(int run) { run_ = run; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

// RAII span; a null log records nothing (untraced runs).
class Scoped {
 public:
  Scoped(SpanLog* log, const std::string& name) : log_(log), id_(log ? log->Begin(name) : -1) {}
  ~Scoped() { Close(); }
  void Close() {
    if (log_ != nullptr) {
      log_->End(id_);
      log_ = nullptr;
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Forwards every turn to the Cache Kernel, timing it and classifying it by
// whether CkStats::idle_turns moved.
class TurnProbe : public cksim::MachineClient {
 public:
  TurnProbe(cksim::Machine& machine, ck::CacheKernel& ck, SelfTimer& timer)
      : ck_(ck), timer_(timer) {
    machine.AttachKernel(this);
  }
  void OnCpuTurn(cksim::Cpu& cpu) override;

  Agg idle;
  Agg busy;

 private:
  ck::CacheKernel& ck_;
  SelfTimer& timer_;
};

// The UNIX emulator with its upcalls timed. `timer` is null when untraced.
class TimedUnix : public ckunix::UnixEmulator {
 public:
  TimedUnix(ck::CacheKernel& ck, const ckunix::UnixConfig& config, SelfTimer* timer)
      : UnixEmulator(ck, config), timer_(timer) {}

  ck::HandlerAction HandleFault(const ck::FaultForward& fault, ck::CkApi& api) override;
  ck::TrapAction HandleTrap(const ck::TrapForward& trap, ck::CkApi& api) override;
  void OnMappingWriteback(const ck::MappingWriteback& record, ck::CkApi& api) override;

  Agg fault;
  Agg trap;
  Agg writeback;

 private:
  SelfTimer* timer_;
};

// How one batch is run.
struct Mode {
  bool parallel = false;     // cluster workloads: host-parallel driver
  SpanLog* spans = nullptr;  // probes armed and spans recorded when set
  bool traced() const { return spans != nullptr; }
};

// One closed batch of a workload: fresh set-up, then the measured phase.
struct Batch {
  double setup_s = 0;
  double wall_s = 0;
  Metrics det;           // simulated and count metrics: deterministic per seed
  Metrics probe_counts;  // traced runs only: deterministic counts from the probes
  Metrics traced;        // traced runs only: host-time layer metrics
  uint64_t ops = 0;
  uint64_t errors = 0;
  std::map<std::string, Agg> aggs;  // traced runs: per-call histograms
  std::vector<std::string> error_notes;
  std::vector<std::string> shape_failures;
  void Error(const std::string& what) {
    ++errors;
    if (error_notes.size() < 20) {
      error_notes.push_back(what);
    }
  }
  void Shape(bool ok, const std::string& what) {
    if (!ok) {
      shape_failures.push_back(what);
    }
  }
};

Batch RunUnixPaging(uint64_t seed, const Mode& mode);
Batch RunNetboot(uint64_t seed, const Mode& mode);
Batch RunFailover(uint64_t seed, const Mode& mode);

// ---- helpers shared by the workloads ----

// Cache Kernel and TLB counters summed over machines, plus fault-latency
// percentiles merged over their kernels' fault_step_stats().
void AddKernelMetrics(const std::vector<ck::CacheKernel*>& kernels, Metrics& out);
// Host-time layer metrics from the probes of a traced batch.
void AddProbeMetrics(const std::vector<const TurnProbe*>& probes,
                     const std::vector<const SelfTimer*>& timers,
                     const std::vector<const TimedUnix*>& emus, const Metrics& det, Batch& b);
// One timed call into the cluster driver (Cluster::RunUntilDone or a wrapper
// of it), as a span and into `total_ns`.
template <typename F>
bool TimedCluster(const Mode& mode, int64_t& total_ns, F&& run) {
  Scoped span(mode.spans, "cluster.run_until_done");
  int64_t start = NowNs();
  bool ok = run();
  total_ns += NowNs() - start;
  return ok;
}
// Cluster-driver metrics of a traced batch: windows, per-window cost, the
// share of machine-time spent inside turns, and the driver's own time
// (cluster wall minus the average machine's turn time).
void AddClusterMetrics(const std::vector<const TurnProbe*>& probes, int64_t cluster_ns,
                       uint64_t windows, Batch& b);
// Simulated milliseconds between two latest-clock readings.
double SimMs(cksim::Cycles from, cksim::Cycles to);
cksim::Cycles LatestClock(cksim::Machine& m);

}  // namespace pb

#endif  // PERFBENCH_BENCH_H_
