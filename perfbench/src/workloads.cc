#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>

#include "checks.h"
#include "dard/dard_agent.h"
#include "flowsim/simulator.h"
#include "harness/experiment.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "pktsim/agent_router.h"
#include "pktsim/session.h"
#include "topology/builders.h"
#include "topology/paths.h"

namespace perfbench {
namespace {

namespace topo = dard::topo;
using dard::Bps;
using dard::FlowId;
using dard::LinkId;
using dard::PathIndex;
using dard::fabric::ControlAgent;
using dard::fabric::DataPlane;
using dard::fabric::FlowView;
using dard::obs::ProfileSection;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


// ---------------------------------------------------------------------------
// Workload definitions.

enum class Substrate { Fluid, Packet };

struct Spec {
  const char* name;
  Substrate substrate;
  int p;                        // fat-tree port count
  Bps capacity;                 // every link
  Seconds elephant_threshold;
  Seconds realloc_interval;     // fluid substrate only
  // Open loop: each arrival is submitted by an event when it falls due,
  // flow ids are recycled and the simulator keeps no flow records.
  bool open_loop;
  std::size_t exact_prefix;     // flows replayed in the exact-mode check
  dard::core::DardConfig dard;  // seed is set per run from --seed
  std::vector<FlowInput> (*inputs)(const topo::Topology&, std::uint64_t);
};

dard::core::DardConfig paper_intervals() {
  dard::core::DardConfig c;
  c.query_interval = 1.0;
  c.schedule_base = 5.0;
  c.schedule_jitter = 5.0;
  c.delta = 10 * dard::kMbps;
  return c;
}

dard::core::DardConfig packet_intervals() {
  dard::core::DardConfig c;
  c.query_interval = 0.25;
  c.schedule_base = 0.5;
  c.schedule_jitter = 0.5;
  c.delta = 1 * dard::kMbps;
  return c;
}

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"fattree16_random", Substrate::Fluid, 16, 1 * dard::kGbps, 1.0, 0.02,
       false, 400, paper_intervals(),
       [](const topo::Topology& t, std::uint64_t seed) {
         return random_pattern(t, 12, 10.0, 128 * dard::kMiB, seed);
       }},
      {"soak_k32_datamining", Substrate::Fluid, 32, 1 * dard::kGbps, 1.0,
       0.02, true, 400, paper_intervals(),
       [](const topo::Topology& t, std::uint64_t seed) {
         return data_mining_soak(t, 5.0, 100'000, seed);
       }},
      {"packet_testbed_stride", Substrate::Packet, 4, 100 * dard::kMbps, 0.25,
       0.0, false, 1000, packet_intervals(),
       [](const topo::Topology& t, std::uint64_t seed) {
         // Stride = hosts per pod, so every flow crosses pods.
         return stride_pattern(t, 8, 4.0, 8 * dard::kMiB, 4, seed);
       }},
  };
  return all;
}

// ---------------------------------------------------------------------------
// Probes around the program's public calls.

// Input index of each live flow id (ids may be recycled, so submit rebinds)
// and the time each input finished; -1 = not (yet) finished.
class CompletionLog {
 public:
  explicit CompletionLog(std::size_t inputs) : finish_(inputs, -1.0) {}

  void bind(FlowId id, std::size_t input) {
    if (id.value() >= input_of_.size()) input_of_.resize(id.value() + 1, kNone);
    input_of_[id.value()] = input;
  }
  [[nodiscard]] std::size_t input_of(FlowId id) const {
    return id.value() < input_of_.size() ? input_of_[id.value()] : kNone;
  }
  void finished(FlowId id, Seconds now) {
    const std::size_t i = input_of(id);
    if (i == kNone || finish_[i] >= 0) {
      ++unmatched_;  // an unknown flow, or one finishing twice
      return;
    }
    finish_[i] = now;
  }
  [[nodiscard]] std::vector<double>& finish() { return finish_; }
  [[nodiscard]] std::size_t unmatched() const { return unmatched_; }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

 private:
  std::vector<std::size_t> input_of_;
  std::vector<double> finish_;
  std::size_t unmatched_ = 0;
};

// Per-layer accounting of one traced round. The program's own profiler and
// registry time the sections inside src/; the fields below are the
// benchmark's timers around public calls.
struct LayerProbe {
  explicit LayerProbe(const topo::Topology& t) : topo(&t) {}

  const topo::Topology* topo;
  dard::obs::Profiler profiler;
  dard::obs::MetricsRegistry metrics;

  double agent_s = 0;        // inclusive time inside agent callbacks
  double agent_paths_s = 0;  // path materialization nested in them
  std::uint64_t place_calls = 0;
  double place_s = 0;

  std::uint64_t events = 0;
  double loop_s = 0;
  double loop_self_s = 0;
  std::size_t peak_pending = 0;

  // ToR-pair lookups the program makes, in order, for the replay: two per
  // arrival (agent placement, substrate route), one per new DARD monitor,
  // and on the fluid substrate three per move (the observed move's two BoNF
  // readings and its new route). Packed as src << 32 | dst.
  std::vector<std::uint64_t> lookups;
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> monitors;
  std::uint64_t moves_seen = 0;

  [[nodiscard]] double total_s(ProfileSection s) const {
    return profiler.section(s).total();
  }
  [[nodiscard]] std::uint64_t count(ProfileSection s) const {
    return profiler.section(s).count();
  }
  void lookup(NodeId s, NodeId d) {
    lookups.push_back(static_cast<std::uint64_t>(s.value()) << 32 | d.value());
  }
};

// Times one agent callback and the path materialization nested inside it.
class TimedCallback {
 public:
  TimedCallback(LayerProbe& probe, DataPlane& net)
      : probe_(probe),
        paths0_(probe.total_s(ProfileSection::PathEnumeration)),
        t0_(Clock::now()) {
    probe_.peak_pending = std::max(probe_.peak_pending, net.events().pending());
  }
  ~TimedCallback() {
    probe_.agent_s += since(t0_);
    probe_.agent_paths_s +=
        probe_.total_s(ProfileSection::PathEnumeration) - paths0_;
  }
  [[nodiscard]] double elapsed() const { return since(t0_); }

 private:
  LayerProbe& probe_;
  double paths0_;
  Clock::time_point t0_;
};

// Wraps the real scheduler: records every completion (both modes) and, in a
// traced round, times each callback into the probe.
class ForwardingAgent final : public ControlAgent {
 public:
  ForwardingAgent(ControlAgent& inner, CompletionLog& log, LayerProbe* probe)
      : inner_(&inner),
        log_(&log),
        probe_(probe),
        monitors_(dynamic_cast<dard::core::DardAgent*>(&inner) != nullptr) {}
  // The substrate holds this object's address.
  ForwardingAgent(const ForwardingAgent&) = delete;
  ForwardingAgent& operator=(const ForwardingAgent&) = delete;

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void start(DataPlane& net) override { inner_->start(net); }

  PathIndex place(DataPlane& net, const FlowView& f) override {
    if (probe_ == nullptr) return inner_->place(net, f);
    const TimedCallback timed(*probe_, net);
    const PathIndex chosen = inner_->place(net, f);
    probe_->place_s += timed.elapsed();
    ++probe_->place_calls;
    probe_->lookup(f.src_tor, f.dst_tor);
    probe_->lookup(f.src_tor, f.dst_tor);
    return chosen;
  }

  void on_elephant(DataPlane& net, const FlowView& f) override {
    if (probe_ == nullptr) return inner_->on_elephant(net, f);
    const TimedCallback timed(*probe_, net);
    inner_->on_elephant(net, f);
    if (!monitors_ || f.dst_tor == f.src_tor) return;
    if (probe_->monitors[{f.src_host.value(), f.dst_tor.value()}]++ == 0)
      probe_->lookup(f.src_tor, f.dst_tor);
  }

  void on_finished(DataPlane& net, const FlowView& f) override {
    log_->finished(f.id, net.now());
    if (probe_ == nullptr) return inner_->on_finished(net, f);
    const TimedCallback timed(*probe_, net);
    inner_->on_finished(net, f);
    if (!monitors_ || !f.is_elephant || f.dst_tor == f.src_tor) return;
    const auto it = probe_->monitors.find({f.src_host.value(), f.dst_tor.value()});
    if (it != probe_->monitors.end() && --it->second == 0)
      probe_->monitors.erase(it);
  }

  void on_daemon_crash(DataPlane& net, NodeId host) override {
    inner_->on_daemon_crash(net, host);
  }
  void on_daemon_restart(DataPlane& net, NodeId host) override {
    inner_->on_daemon_restart(net, host);
  }

 private:
  ControlAgent* inner_;
  CompletionLog* log_;
  LayerProbe* probe_;
  bool monitors_;  // the agent keeps a pinned path set per DARD monitor
};

// Counts moves and logs their path lookups for the replay.
class LayerObserver final : public dard::obs::SimObserver {
 public:
  LayerObserver(LayerProbe& probe, int lookups_per_move)
      : probe_(&probe), lookups_per_move_(lookups_per_move) {}
  // The substrate holds this object's address.
  LayerObserver(const LayerObserver&) = delete;
  LayerObserver& operator=(const LayerObserver&) = delete;
  void on_flow_move(const dard::obs::TraceEvent& e) override {
    ++probe_->moves_seen;
    for (int i = 0; i < lookups_per_move_; ++i)
      probe_->lookup(probe_->topo->tor_of_host(e.src_host),
                     probe_->topo->tor_of_host(e.dst_host));
  }

 private:
  LayerProbe* probe_;
  int lookups_per_move_;
};

// ---------------------------------------------------------------------------
// One round: a fresh simulator and agent over the same inputs.

struct Round {
  double setup_s = 0;
  double run_s = 0;
  bool drained = false;  // the run loop ended with every flow finished
  std::vector<double> finish;
  std::size_t unmatched = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t query_attempts = 0;
  std::uint64_t query_lost = 0;
  std::uint64_t moves = 0;
  bool is_dard = false;
  // Packet substrate: acknowledged payload vs what the flows carry.
  std::uint64_t acked_bytes = 0;
  std::uint64_t expected_acked = 0;
  std::unique_ptr<LayerProbe> probe;  // traced rounds only
};

std::unique_ptr<ControlAgent> make_scheduler(const Spec& spec,
                                             const Options& opt) {
  dard::harness::ExperimentConfig cfg;
  cfg.scheduler = opt.scheduler == "ecmp" ? dard::harness::SchedulerKind::Ecmp
                                          : dard::harness::SchedulerKind::Dard;
  cfg.dard = spec.dard;
  cfg.dard.seed = opt.seed ^ 0xD42D;
  return dard::harness::make_agent(cfg);
}

void collect_agent(const ControlAgent& agent, Round* r) {
  if (const auto* d = dynamic_cast<const dard::core::DardAgent*>(&agent)) {
    r->is_dard = true;
    r->query_attempts = d->total_query_attempts();
    r->query_lost = d->total_query_lost();
    r->moves = d->total_moves();
  }
}

dard::flowsim::FlowSpec flow_spec(const FlowInput& f) {
  dard::flowsim::FlowSpec s;
  s.src_host = f.src;
  s.dst_host = f.dst;
  s.size = f.size;
  s.arrival = f.arrival;
  s.src_port = f.src_port;
  s.dst_port = f.dst_port;
  return s;
}

// Submits open-loop arrivals one event at a time as they fall due.
class OpenLoopFeeder {
 public:
  OpenLoopFeeder(dard::flowsim::FlowSimulator& sim,
                 const std::vector<FlowInput>& inputs, CompletionLog& log)
      : sim_(&sim), inputs_(&inputs), log_(&log) {}
  // Scheduled events capture `this`.
  OpenLoopFeeder(const OpenLoopFeeder&) = delete;
  OpenLoopFeeder& operator=(const OpenLoopFeeder&) = delete;
  void arm() {
    if (next_ < inputs_->size())
      sim_->events().schedule((*inputs_)[next_].arrival, [this] { fire(); });
  }

 private:
  void fire() {
    log_->bind(sim_->submit(flow_spec((*inputs_)[next_])), next_);
    ++next_;
    arm();
  }
  dard::flowsim::FlowSimulator* sim_;
  const std::vector<FlowInput>* inputs_;
  CompletionLog* log_;
  std::size_t next_ = 0;
};

// The traced event loop: times every EventQueue::run_next and subtracts the
// instrumented sections it contains, each interval once (README "Nesting").
void traced_loop(dard::flowsim::FlowSimulator& sim, std::size_t total,
                 LayerProbe& p) {
  auto& ev = sim.events();
  while (sim.finished_flows() < total) {
    const double mm0 = p.total_s(ProfileSection::MaxMinRealloc);
    const double rd0 = p.total_s(ProfileSection::DardRound);
    const double rf0 = p.total_s(ProfileSection::MonitorRefresh);
    const double pe0 = p.total_s(ProfileSection::PathEnumeration);
    const double ag0 = p.agent_s;
    const double agp0 = p.agent_paths_s;
    const auto t0 = Clock::now();
    if (!ev.run_next()) break;
    const double dur = since(t0);
    ++p.events;
    p.peak_pending = std::max(p.peak_pending, ev.pending());
    const double d_round = p.total_s(ProfileSection::DardRound) - rd0;
    const double d_refresh = p.total_s(ProfileSection::MonitorRefresh) - rf0;
    // Materialization outside agent callbacks; inside a round or refresh
    // event it is nested in that section (those events are nothing else).
    double paths_top = p.total_s(ProfileSection::PathEnumeration) - pe0 -
                       (p.agent_paths_s - agp0);
    if (d_round > 0 || d_refresh > 0) paths_top = 0;
    const double children = (p.total_s(ProfileSection::MaxMinRealloc) - mm0) +
                            (p.agent_s - ag0) + d_round + d_refresh +
                            paths_top;
    p.loop_s += dur;
    p.loop_self_s += dur - children;
  }
}

Round run_fluid_round(const Spec& spec, const topo::Topology& t,
                      const std::vector<FlowInput>& inputs, const Options& opt,
                      bool traced, Clock::time_point setup_start) {
  Round r;
  if (traced) r.probe = std::make_unique<LayerProbe>(t);
  LayerProbe* probe = r.probe.get();

  dard::flowsim::SimConfig cfg;
  cfg.elephant_threshold = spec.elephant_threshold;
  cfg.realloc_interval = spec.realloc_interval;
  cfg.recycle_flow_ids = spec.open_loop;
  cfg.keep_records = !spec.open_loop;
  dard::flowsim::FlowSimulator sim(t, cfg);
  std::unique_ptr<LayerObserver> observer;
  if (probe != nullptr) {
    observer = std::make_unique<LayerObserver>(*probe, 3);
    sim.set_observer(observer.get());
    sim.set_metrics(&probe->metrics);
    sim.set_profiler(&probe->profiler);
  }
  const auto agent = make_scheduler(spec, opt);
  CompletionLog log(inputs.size());
  ForwardingAgent forward(*agent, log, probe);
  sim.set_agent(&forward);
  OpenLoopFeeder feeder(sim, inputs, log);
  if (spec.open_loop) {
    feeder.arm();
  } else {
    for (std::size_t i = 0; i < inputs.size(); ++i)
      log.bind(sim.submit(flow_spec(inputs[i])), i);
  }
  r.setup_s = since(setup_start);

  const auto t0 = Clock::now();
  if (probe == nullptr) {
    auto& ev = sim.events();
    while (sim.finished_flows() < inputs.size() && ev.run_next()) {
    }
  } else {
    traced_loop(sim, inputs.size(), *probe);
  }
  r.run_s = since(t0);

  r.drained = sim.finished_flows() == inputs.size();
  r.unmatched = log.unmatched();
  r.finish = std::move(log.finish());
  r.control_bytes = sim.accountant().total_bytes();
  collect_agent(*agent, &r);
  return r;
}

Round run_packet_round(const Spec& spec, const topo::Topology& t,
                       const std::vector<FlowInput>& inputs,
                       const Options& opt, bool traced,
                       Clock::time_point setup_start) {
  Round r;
  if (traced) r.probe = std::make_unique<LayerProbe>(t);
  LayerProbe* probe = r.probe.get();

  const auto agent = make_scheduler(spec, opt);
  CompletionLog log(inputs.size());
  ForwardingAgent forward(*agent, log, probe);
  auto router = std::make_unique<dard::pktsim::AgentRouter>(
      t, forward, spec.elephant_threshold);
  dard::pktsim::AgentRouter* adapter = router.get();
  std::unique_ptr<LayerObserver> observer;
  if (probe != nullptr) {
    observer = std::make_unique<LayerObserver>(*probe, 0);
    adapter->set_observer(observer.get());
    adapter->set_metrics(&probe->metrics);
    adapter->set_profiler(&probe->profiler);
  }
  dard::pktsim::PktSession session(t, std::move(router));
  if (probe != nullptr) {
    session.set_metrics(&probe->metrics);
    session.set_profiler(&probe->profiler);
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const FlowInput& f = inputs[i];
    log.bind(session.add_flow({f.src, f.dst, f.size, f.arrival, f.src_port,
                               f.dst_port}),
             i);
    r.expected_acked += (f.size + dard::pktsim::kMss - 1) /
                        dard::pktsim::kMss * dard::pktsim::kMss;
  }
  r.setup_s = since(setup_start);

  const auto t0 = Clock::now();
  r.drained = session.run(3600);
  r.run_s = since(t0);

  if (probe != nullptr) {
    probe->events = probe->count(ProfileSection::PktDispatch);
    probe->loop_s = r.run_s;
    probe->loop_self_s = r.run_s - probe->total_s(ProfileSection::PktDispatch);
  }
  r.unmatched = log.unmatched();
  r.finish = std::move(log.finish());
  r.acked_bytes = session.total_acked_bytes();
  r.control_bytes = adapter->accountant().total_bytes();
  collect_agent(*agent, &r);
  return r;
}

Round run_round(const Spec& spec, const topo::Topology& t,
                const std::vector<FlowInput>& inputs, const Options& opt,
                bool traced, Clock::time_point setup_start) {
  return spec.substrate == Substrate::Fluid
             ? run_fluid_round(spec, t, inputs, opt, traced, setup_start)
             : run_packet_round(spec, t, inputs, opt, traced, setup_start);
}

// ---------------------------------------------------------------------------
// Checks that need their own runs.

// A short run in exact mode (realloc_interval = 0) over the first inputs:
// at sampled events the program's rates must be feasible and max-min, and
// integrating each flow's rate over time must give exactly its size.
void exact_mode_check(const Spec& spec, const topo::Topology& t,
                      const std::vector<FlowInput>& all, const Options& opt,
                      Checks& c) {
  const std::vector<FlowInput> inputs(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(spec.exact_prefix, all.size())));
  dard::flowsim::SimConfig cfg;
  cfg.elephant_threshold = spec.elephant_threshold;
  cfg.realloc_interval = 0;
  dard::flowsim::FlowSimulator sim(t, cfg);
  const auto agent = make_scheduler(spec, opt);
  CompletionLog log(inputs.size());
  ForwardingAgent forward(*agent, log, nullptr);
  sim.set_agent(&forward);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    log.bind(sim.submit(flow_spec(inputs[i])), i);

  const std::size_t n = inputs.size();
  const std::size_t stride = std::max<std::size_t>(1, 3 * n / 100);
  std::vector<double> delivered(n, 0.0);
  std::vector<std::pair<FlowId, double>> live;  // rates after the last event
  Seconds prev = 0;
  std::size_t events = 0, samples = 0;
  auto& ev = sim.events();
  while (sim.finished_flows() < n && ev.run_next()) {
    const Seconds now = sim.now();
    for (const auto& [id, rate] : live)
      delivered[log.input_of(id)] += rate / 8.0 * (now - prev);
    prev = now;
    live.clear();
    for (const FlowId id : sim.active_flows())
      live.emplace_back(id, sim.rate_of(id));
    if (++events % stride != 0 || samples >= 150 || live.empty()) continue;
    ++samples;
    std::vector<std::span<const LinkId>> paths;
    std::vector<double> rates;
    for (const auto& [id, rate] : live) {
      paths.push_back(sim.links_of(sim.flow(id)));
      rates.push_back(rate);
    }
    check_rates(t, paths, rates, c);
  }
  c.expect(sim.finished_flows() == n, "exact-mode run left flows unfinished");
  c.expect(samples > 0, "exact-mode run sampled no rates");
  check_delivered(inputs, delivered, c);
  check_transfers(t, inputs, log.finish(), c);
  Round r;
  collect_agent(*agent, &r);
  if (r.is_dard)
    check_control_bytes(sim.accountant().total_bytes(), r.query_attempts,
                        r.query_lost, c);
}

// Path sets of the ToR pairs the inputs use (up to 400 of them), plus one
// same-ToR, one same-pod and one cross-pod pair, from a fresh repository.
void path_check(const Spec& spec, const topo::Topology& t,
                const std::vector<FlowInput>& inputs, Checks& c) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  const auto& tors = t.tors();
  const NodeId first = tors.front();
  pairs.insert({first.value(), first.value()});
  for (const NodeId other : tors) {
    if (other == first) continue;
    if (t.node(other).pod == t.node(first).pod)
      pairs.insert({first.value(), other.value()});
  }
  pairs.insert({first.value(), tors.back().value()});
  for (const FlowInput& f : inputs) {
    if (pairs.size() >= 400) break;
    pairs.insert({t.tor_of_host(f.src).value(), t.tor_of_host(f.dst).value()});
  }
  topo::PathRepository repo(t);
  for (const auto& [s, d] : pairs)
    check_path_set(t, spec.p, NodeId(s), NodeId(d),
                   repo.tor_paths(NodeId(s), NodeId(d)), c);
}

// ---------------------------------------------------------------------------
// Reduction.

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of sorted values.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Simulated {
  double avg = 0, p50 = 0, p99 = 0;
  std::vector<double> fingerprint;  // everything simulated, for identity
};

Simulated simulated(const Round& r, const std::vector<FlowInput>& inputs) {
  Simulated s;
  std::vector<double> transfer;
  transfer.reserve(inputs.size());
  double sum = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (r.finish[i] >= 0) {
      transfer.push_back(r.finish[i] - inputs[i].arrival);
      sum += transfer.back();
    }
  if (transfer.empty()) return s;
  std::sort(transfer.begin(), transfer.end());
  s.avg = sum / static_cast<double>(transfer.size());
  s.p50 = percentile(transfer, 0.50);
  s.p99 = percentile(transfer, 0.99);
  s.fingerprint = r.finish;
  for (const double x : {static_cast<double>(r.control_bytes),
                         static_cast<double>(r.query_attempts),
                         static_cast<double>(r.query_lost),
                         static_cast<double>(r.moves)})
    s.fingerprint.push_back(x);
  return s;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// Replays the logged ToR-pair lookups against a fresh repository of the
// same capacity and returns the cache's own cost per lookup in ns,
// materialization excluded. The replay's misses must equal the run's.
double replay_ns_per_lookup(const topo::Topology& t,
                            const std::vector<std::uint64_t>& lookups,
                            std::uint64_t* replay_misses) {
  const std::size_t n = lookups.size();
  if (n == 0) return 0;
  topo::PathRepository repo(t);
  dard::obs::Profiler prof;
  repo.set_profiler(&prof);
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    sink += repo.tor_paths(NodeId(static_cast<std::uint32_t>(lookups[i] >> 32)),
                           NodeId(static_cast<std::uint32_t>(lookups[i])))
                .size();
  const double wall = since(t0);
  const auto& h = prof.section(ProfileSection::PathEnumeration);
  *replay_misses = h.count();
  if (sink == 0) return 0;
  return (wall - h.total()) / static_cast<double>(n) * 1e9;
}

std::vector<Metric> layer_metrics(const Round& r, std::size_t flows,
                                  const topo::Topology& t,
                                  double overhead_ratio, Checks& checks,
                                  std::vector<std::string>* diagnostics) {
  const LayerProbe& p = *r.probe;
  const auto counter = [&](const char* name) -> double {
    const auto& all = p.metrics.counters();
    const auto it = all.find(name);
    return it == all.end() ? 0.0 : static_cast<double>(it->second.value);
  };
  const auto n = [&](ProfileSection s) {
    return static_cast<double>(p.count(s));
  };
  std::uint64_t replay_misses = 0;
  const double ns_lookup = replay_ns_per_lookup(t, p.lookups, &replay_misses);
  const double lookups = static_cast<double>(p.lookups.size());
  const double misses = n(ProfileSection::PathEnumeration);
  const double materialize = p.total_s(ProfileSection::PathEnumeration);
  const double rounds = n(ProfileSection::DardRound);
  checks.expect(static_cast<double>(replay_misses) == misses,
                "lookup replay missed " + std::to_string(replay_misses) +
                    " times, the traced run " +
                    std::to_string(p.count(ProfileSection::PathEnumeration)));
  diagnostics->push_back("observer_moves=" + std::to_string(p.moves_seen));
  diagnostics->push_back("loop_s=" + std::to_string(p.loop_s));
  diagnostics->push_back("agent_callbacks_s=" + std::to_string(p.agent_s));

  return {
      {"flowsim.events", static_cast<double>(p.events), "count"},
      {"flowsim.events_per_flow", ratio(static_cast<double>(p.events), flows),
       "events/flow"},
      {"flowsim.peak_pending", static_cast<double>(p.peak_pending), "count"},
      {"flowsim.loop_self_s", p.loop_self_s, "s"},
      {"flowsim.maxmin.calls", n(ProfileSection::MaxMinRealloc), "count"},
      {"flowsim.maxmin.busy_s", p.total_s(ProfileSection::MaxMinRealloc), "s"},
      {"flowsim.maxmin.us_per_call",
       ratio(p.total_s(ProfileSection::MaxMinRealloc),
             n(ProfileSection::MaxMinRealloc)) * 1e6,
       "us"},
      {"flowsim.maxmin.scoped_ratio",
       ratio(counter("flowsim.realloc_scoped"),
             counter("flowsim.reallocations")),
       "ratio"},
      {"topology.paths.lookups", lookups, "count"},
      {"topology.paths.misses", misses, "count"},
      {"topology.paths.hit_ratio", 1.0 - ratio(misses, lookups), "ratio"},
      {"topology.paths.us_per_miss", ratio(materialize, misses) * 1e6, "us"},
      {"topology.paths.materialize_busy_s", materialize, "s"},
      {"topology.paths.ns_per_lookup", ns_lookup, "ns"},
      {"dard.rounds", rounds, "count"},
      {"dard.round_busy_s", p.total_s(ProfileSection::DardRound), "s"},
      {"dard.refreshes", n(ProfileSection::MonitorRefresh), "count"},
      {"dard.refresh_busy_s", p.total_s(ProfileSection::MonitorRefresh), "s"},
      {"dard.place_us",
       ratio(p.place_s, static_cast<double>(p.place_calls)) * 1e6, "us"},
      {"dard.moves", static_cast<double>(r.moves), "count"},
      {"dard.moves_per_round", ratio(static_cast<double>(r.moves), rounds),
       "ratio"},
      {"dard.query_attempts", static_cast<double>(r.query_attempts), "count"},
      {"pktsim.dispatches", n(ProfileSection::PktDispatch), "count"},
      {"pktsim.ns_per_dispatch",
       ratio(p.total_s(ProfileSection::PktDispatch),
             n(ProfileSection::PktDispatch)) * 1e9,
       "ns"},
      {"pktsim.dispatch_busy_s", p.total_s(ProfileSection::PktDispatch), "s"},
      {"pktsim.forwarded", counter("pktsim.forwarded"), "count"},
      {"pktsim.drops", counter("pktsim.drops"), "count"},
      {"pktsim.retransmits", counter("pktsim.retransmits"), "count"},
      {"obs.trace_overhead_ratio", overhead_ratio, "ratio"},
  };
}

void write_layer_file(const Options& opt, const std::vector<Metric>& metrics,
                      const std::vector<std::string>& diagnostics,
                      std::vector<std::string>* notes) {
  if (opt.out_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-layers.json";
  std::ofstream os(path);
  if (!os) {
    notes->push_back("cannot write " + path);
    return;
  }
  char buf[64];
  os << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}, \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i)
    os << (i ? ", " : "") << '"' << diagnostics[i] << '"';
  os << "]}\n";
  notes->push_back("per-layer metrics written to " + path);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& s : specs()) v.push_back(s.name);
    return v;
  }();
  return names;
}

Outcome run_workload(const Options& opt, Clock::time_point process_start) {
  Outcome out;
  const auto& all = specs();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Spec& s) {
    return opt.workload == s.name;
  });
  DCN_CHECK_MSG(it != all.end(), "unknown workload");
  const Spec& spec = *it;

  // Set-up of the first round counts from the process's start: topology,
  // inputs, then the round's own simulator, agent and submissions.
  topo::FatTreeParams shape;
  shape.p = spec.p;
  shape.link_capacity = spec.capacity;
  shape.link_delay = 0.0001;
  const topo::Topology t = topo::build_fat_tree(shape);
  const std::vector<FlowInput> inputs = spec.inputs(t, opt.seed);

  // The first round is cold, like a single simulator run, and its set-up
  // counts from the process's start. run_s and the tracing overhead come
  // from the warm rounds after it, which repeat steadily.
  std::vector<Round> plain, traced;
  const auto start = Clock::now();
  plain.push_back(run_round(spec, t, inputs, opt, false, process_start));
  do {
    if (opt.trace)
      traced.push_back(run_round(spec, t, inputs, opt, true, Clock::now()));
    plain.push_back(run_round(spec, t, inputs, opt, false, Clock::now()));
  } while (since(start) < opt.seconds);
  const double rss_mb = peak_rss_mb();

  // Checks on every round: all flows finished at physical speed, control
  // bytes match DARD's query totals, same simulated results every time.
  Checks checks, flow_checks;
  const Simulated first = simulated(plain.front(), inputs);
  std::vector<Round*> rounds;
  for (auto& r : plain) rounds.push_back(&r);
  for (auto& r : traced) rounds.push_back(&r);
  for (Round* r : rounds) {
    out.attempted += inputs.size();
    out.failed += check_transfers(t, inputs, r->finish, flow_checks);
    checks.expect(r->drained, "run loop ended before every flow finished");
    checks.expect(r->unmatched == 0, "a completion matched no live input");
    if (r->is_dard)
      check_control_bytes(r->control_bytes, r->query_attempts, r->query_lost,
                          checks);
    if (spec.substrate == Substrate::Packet)
      checks.expect(r->acked_bytes == r->expected_acked,
                    "acknowledged bytes " + std::to_string(r->acked_bytes) +
                        " != flow bytes " + std::to_string(r->expected_acked));
    if (r->probe != nullptr)
      checks.expect(r->probe->moves_seen == r->moves,
                    "observed moves differ from the agent's total");
    check_identical(first.fingerprint, simulated(*r, inputs).fingerprint,
                    checks);
  }
  if (opt.scheduler == "dard")
    checks.expect(first.fingerprint.size() > 0 && plain.front().moves > 0,
                  "DARD never moved a flow, so its control loop went "
                  "unmeasured");
  exact_mode_check(spec, t, inputs, opt, checks);
  path_check(spec, t, inputs, checks);
  std::string broken;
  checks.expect(self_test(&broken), "check self-test: " + broken);

  const auto warm_run_s = [&](const std::vector<Round>& rs, std::size_t skip) {
    std::vector<double> v;
    for (std::size_t i = skip; i < rs.size(); ++i) v.push_back(rs[i].run_s);
    return median(v);
  };
  std::vector<std::string> diagnostics;
  if (opt.trace) {
    const double overhead =
        ratio(warm_run_s(traced, 0), warm_run_s(plain, 1));
    out.metrics = layer_metrics(traced.front(), inputs.size(), t, overhead,
                                checks, &diagnostics);
  }

  out.correct = checks.ok();
  for (const auto& m : checks.messages()) out.notes.push_back("check: " + m);
  for (const auto& m : flow_checks.messages())
    out.notes.push_back("failed flow: " + m);
  std::string times;
  for (const auto* rs : {&plain, &traced}) {
    times += rs == &plain ? "; untraced run_s" : "; traced run_s";
    for (const auto& r : *rs) times += ' ' + std::to_string(r.run_s);
  }
  out.notes.push_back(std::to_string(inputs.size()) + " flows per round" +
                      times);
  if (!opt.trace) {
    std::vector<double> rate;
    for (std::size_t i = 1; i < plain.size(); ++i)
      rate.push_back(static_cast<double>(inputs.size()) / plain[i].run_s);
    out.metrics = {
        {"setup_s", plain.front().setup_s, "s"},
        {"run_s", warm_run_s(plain, 1), "s"},
        {"flows_per_s", median(rate), "1/s"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"avg_transfer_s", first.avg, "s"},
        {"p50_transfer_s", first.p50, "s"},
        {"p99_transfer_s", first.p99, "s"},
        {"control_bytes", static_cast<double>(plain.front().control_bytes),
         "bytes"},
    };
  } else {
    for (const auto& d : diagnostics) out.notes.push_back(d);
    write_layer_file(opt, out.metrics, diagnostics, &out.notes);
  }
  return out;
}

}  // namespace perfbench
