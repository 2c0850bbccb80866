#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace pb {

const char* LayerName(int layer) {
  static const char* const kNames[kLayerCount] = {"driver", "ck", "appkernel", "unixemu", "ckpt"};
  return kNames[layer];
}

void Agg::Add(int64_t ns) {
  ++count;
  total_ns += ns;
  int bucket = 0;
  for (uint64_t v = static_cast<uint64_t>(std::max<int64_t>(ns, 1)); v > 1; v >>= 1) {
    ++bucket;
  }
  ++buckets[std::min(bucket, 47)];
}

void Agg::Merge(const Agg& other) {
  count += other.count;
  total_ns += other.total_ns;
  for (int i = 0; i < 48; ++i) {
    buckets[i] += other.buckets[i];
  }
}

int64_t SelfTimer::Exit() {
  Frame f = stack_.back();
  stack_.pop_back();
  int64_t dur = NowNs() - f.start;
  self_ns[f.layer] += dur - f.child;
  if (!stack_.empty()) {
    stack_.back().child += dur;
  }
  return dur;
}

int SpanLog::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.start = NowNs();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::End(int id) {
  spans_[id].end = NowNs();
  open_.pop_back();
}

void TurnProbe::OnCpuTurn(cksim::Cpu& cpu) {
  uint64_t idle_before = ck_.stats().idle_turns;
  timer_.Enter(kCk);
  ck_.OnCpuTurn(cpu);
  int64_t ns = timer_.Exit();
  (ck_.stats().idle_turns != idle_before ? idle : busy).Add(ns);
}

ck::HandlerAction TimedUnix::HandleFault(const ck::FaultForward& f, ck::CkApi& api) {
  if (timer_ == nullptr) {
    return UnixEmulator::HandleFault(f, api);
  }
  timer_->Enter(kAppKernel);
  ck::HandlerAction action = UnixEmulator::HandleFault(f, api);
  fault.Add(timer_->Exit());
  return action;
}

ck::TrapAction TimedUnix::HandleTrap(const ck::TrapForward& t, ck::CkApi& api) {
  if (timer_ == nullptr) {
    return UnixEmulator::HandleTrap(t, api);
  }
  timer_->Enter(kUnixEmu);
  ck::TrapAction action = UnixEmulator::HandleTrap(t, api);
  trap.Add(timer_->Exit());
  return action;
}

void TimedUnix::OnMappingWriteback(const ck::MappingWriteback& r, ck::CkApi& api) {
  if (timer_ == nullptr) {
    UnixEmulator::OnMappingWriteback(r, api);
    return;
  }
  timer_->Enter(kAppKernel);
  UnixEmulator::OnMappingWriteback(r, api);
  writeback.Add(timer_->Exit());
}

double SimMs(cksim::Cycles from, cksim::Cycles to) {
  return cksim::CostModel::ToMicroseconds(to - from) / 1000.0;
}

cksim::Cycles LatestClock(cksim::Machine& m) {
  cksim::Cycles latest = 0;
  for (uint32_t i = 0; i < m.cpu_count(); ++i) {
    latest = std::max(latest, m.cpu(i).clock());
  }
  return latest;
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

void AddKernelMetrics(const std::vector<ck::CacheKernel*>& kernels, Metrics& out) {
  constexpr int kMap = static_cast<int>(ck::ObjectType::kMapping);
  double reclaim_steps = 0, reclaims = 0, map_reclaims = 0, map_writebacks = 0;
  double faults = 0, ctx = 0, fast = 0, slow = 0, idle_turns = 0, instr = 0;
  double trace_hits = 0, trace_misses = 0, tlb_hits = 0, tlb_misses = 0;
  ckbase::Stats total, transfer, handle_load, resume;
  for (ck::CacheKernel* k : kernels) {
    const ck::CkStats& s = k->stats();
    for (uint32_t t = 0; t < ck::kObjectTypeCount; ++t) {
      reclaim_steps += static_cast<double>(s.reclaim_scan_steps[t]);
      reclaims += static_cast<double>(s.reclamations[t]);
    }
    map_reclaims += static_cast<double>(s.reclamations[kMap]);
    map_writebacks += static_cast<double>(s.writebacks[kMap]);
    faults += static_cast<double>(s.faults_forwarded);
    ctx += static_cast<double>(s.context_switches);
    fast += static_cast<double>(s.signals_delivered_fast);
    slow += static_cast<double>(s.signals_delivered_slow);
    idle_turns += static_cast<double>(s.idle_turns);
    instr += static_cast<double>(s.guest_instructions);
    trace_hits += static_cast<double>(s.exec_trace_hits);
    trace_misses += static_cast<double>(s.exec_trace_misses);
    cksim::Machine& m = k->machine();
    for (uint32_t i = 0; i < m.cpu_count(); ++i) {
      tlb_hits += static_cast<double>(m.cpu(i).mmu().tlb().hits());
      tlb_misses += static_cast<double>(m.cpu(i).mmu().tlb().misses());
    }
    const ck::FaultStepStats& f = k->fault_step_stats();
    total.Merge(f.total);
    transfer.Merge(f.transfer);
    handle_load.Merge(f.handle_load);
    resume.Merge(f.resume);
  }
  out["ck.mapping.reclamations"] = {map_reclaims, "count"};
  out["ck.mapping.writebacks"] = {map_writebacks, "count"};
  // Every TLB miss walks the page tables: it either finds a loaded mapping
  // descriptor or is forwarded as a fault to the application kernel.
  out["ck.mapping.hit_ratio"] = {tlb_misses == 0 ? 0.0 : 1.0 - faults / tlb_misses, "ratio"};
  out["ck.reclaim.steps_per_victim"] = {Ratio(reclaim_steps, reclaims), "count"};
  out["ck.faults_forwarded"] = {faults, "count"};
  out["ck.context_switches"] = {ctx, "count"};
  out["ck.signals.fast"] = {fast, "count"};
  out["ck.signals.slow"] = {slow, "count"};
  out["ck.idle_turns"] = {idle_turns, "count"};
  out["isa.guest_instructions"] = {instr, "count"};
  out["isa.trace_hit_ratio"] = {Ratio(trace_hits, trace_hits + trace_misses), "ratio"};
  out["sim.tlb.hit_ratio"] = {Ratio(tlb_hits, tlb_hits + tlb_misses), "ratio"};
  out["fault_p50_us"] = {total.Percentile(50), "us"};
  out["fault_p99_us"] = {total.Percentile(99), "us"};
  out["fault.samples"] = {static_cast<double>(total.count()), "count"};
  out["ck.fault.transfer_us"] = {transfer.Percentile(50), "us"};
  out["ck.fault.handle_load_us"] = {handle_load.Percentile(50), "us"};
  out["ck.fault.resume_us"] = {resume.Percentile(50), "us"};
}

void AddProbeMetrics(const std::vector<const TurnProbe*>& probes,
                     const std::vector<const SelfTimer*>& timers,
                     const std::vector<const TimedUnix*>& emus, const Metrics& det, Batch& b) {
  Agg idle, busy, fault, trap, writeback;
  for (const TurnProbe* p : probes) {
    idle.Merge(p->idle);
    busy.Merge(p->busy);
  }
  for (const TimedUnix* e : emus) {
    fault.Merge(e->fault);
    trap.Merge(e->trap);
    writeback.Merge(e->writeback);
  }
  b.aggs["ck.turn.idle"] = idle;
  b.aggs["ck.turn.busy"] = busy;
  b.aggs["appkernel.fault"] = fault;
  b.aggs["appkernel.writeback"] = writeback;
  b.aggs["unixemu.trap"] = trap;
  double turns = static_cast<double>(idle.count + busy.count);
  b.probe_counts["ck.turns"] = {turns, "count"};
  b.probe_counts["ck.turns.idle_share"] = {Ratio(static_cast<double>(idle.count), turns),
                                           "ratio"};
  b.traced["ck.turn.idle_ns"] = {idle.MeanNs(), "ns"};
  b.traced["ck.turn.busy_ns"] = {busy.MeanNs(), "ns"};
  b.traced["isa.busy_ns_per_instr"] = {
      Ratio(static_cast<double>(busy.total_ns), det.at("isa.guest_instructions").value), "ns"};
  b.traced["appkernel.fault_ns"] = {fault.MeanNs(), "ns"};
  b.traced["appkernel.writeback_ns"] = {writeback.MeanNs(), "ns"};
  b.traced["unixemu.syscall_ns"] = {trap.MeanNs(), "ns"};
  for (int layer = 0; layer < kLayerCount; ++layer) {
    int64_t self = 0;
    for (const SelfTimer* t : timers) {
      self += t->self_ns[layer];
    }
    b.traced[std::string("self.") + LayerName(layer) + "_s"] = {static_cast<double>(self) / 1e9,
                                                               "s"};
  }
}

void AddClusterMetrics(const std::vector<const TurnProbe*>& probes, int64_t cluster_ns,
                       uint64_t windows, Batch& b) {
  double turn_ns = 0;
  for (const TurnProbe* p : probes) {
    turn_ns += static_cast<double>(p->idle.total_ns + p->busy.total_ns);
  }
  double machines = static_cast<double>(probes.size());
  double run_ns = static_cast<double>(cluster_ns);
  b.traced["sim.cluster.ns_per_window"] = {Ratio(run_ns, static_cast<double>(windows)), "ns"};
  b.traced["sim.cluster.turn_share"] = {Ratio(turn_ns, machines * run_ns), "ratio"};
  b.traced["self.driver_s"] = {(run_ns - turn_ns / machines) / 1e9, "s"};
}

}  // namespace pb
