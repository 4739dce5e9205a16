#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <unordered_map>

#include "topology/builders.h"

namespace perfbench {

using dard::LinkId;
using dard::topo::NodeKind;
using dard::topo::Path;
using dard::topo::Topology;

namespace {

// A switch's height in the tree; hosts never appear inside a ToR path.
int height(const Topology& t, NodeId n) {
  switch (t.node(n).kind) {
    case NodeKind::Tor:
      return 1;
    case NodeKind::Agg:
      return 2;
    case NodeKind::Core:
      return 3;
    case NodeKind::Host:
      break;
  }
  return -1;
}

// The program's rate-change tolerance: a recomputed rate within 0.1% of
// the current one keeps the current one (simulator.cc kRateTolerance).
constexpr double kRateTolerance = 1e-3;

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void check_path_set(const Topology& t, int p, NodeId src_tor, NodeId dst_tor,
                    const std::vector<Path>& set, Checks& c) {
  const std::string pair = std::to_string(src_tor.value()) + "->" +
                           std::to_string(dst_tor.value());
  const std::size_t half = static_cast<std::size_t>(p / 2);
  std::size_t expected = half * half;
  if (src_tor == dst_tor)
    expected = 1;
  else if (t.node(src_tor).pod == t.node(dst_tor).pod)
    expected = half;
  c.expect(set.size() == expected,
           "pair " + pair + ": " + std::to_string(set.size()) +
               " paths, expected " + std::to_string(expected));

  std::set<std::vector<NodeId>> seen;
  for (const Path& path : set) {
    const auto& nodes = path.nodes;
    bool ok = !nodes.empty() && nodes.front() == src_tor &&
              nodes.back() == dst_tor &&
              path.links.size() + 1 == nodes.size();
    for (std::size_t i = 0; ok && i < path.links.size(); ++i) {
      const LinkId l = path.links[i];
      ok = l.value() < t.link_count() && t.link(l).src == nodes[i] &&
           t.link(l).dst == nodes[i + 1];
    }
    // Valley-free: strictly up, then strictly down, never revisiting.
    bool descending = false;
    for (std::size_t i = 0; ok && i + 1 < nodes.size(); ++i) {
      const int a = height(t, nodes[i]);
      const int b = height(t, nodes[i + 1]);
      ok = a > 0 && b > 0 && a != b;
      if (b < a) descending = true;
      if (ok && descending && b > a) ok = false;
    }
    std::vector<NodeId> sorted = nodes;
    std::sort(sorted.begin(), sorted.end());
    ok = ok && std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
    c.expect(ok, "pair " + pair + ": a path is not a valley-free walk");
    c.expect(seen.insert(nodes).second, "pair " + pair + ": duplicate path");
  }
}

std::vector<double> water_fill(const Topology& t,
                               const std::vector<std::span<const LinkId>>& paths) {
  const std::size_t n = paths.size();
  std::vector<double> rate(n, 0.0);
  std::vector<char> frozen(n, 0);
  // Dense per-used-link state.
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of;
  std::vector<double> cap, rem;
  std::vector<std::uint32_t> unfrozen;
  std::vector<std::vector<std::uint32_t>> flows_on;
  for (std::uint32_t f = 0; f < n; ++f) {
    for (const LinkId l : paths[f]) {
      auto [it, inserted] = slot_of.emplace(
          l.value(), static_cast<std::uint32_t>(cap.size()));
      if (inserted) {
        cap.push_back(t.link(l).capacity);
        rem.push_back(t.link(l).capacity);
        unfrozen.push_back(0);
        flows_on.emplace_back();
      }
      ++unfrozen[it->second];
      flows_on[it->second].push_back(f);
    }
    if (paths[f].empty()) frozen[f] = 1;  // no link constrains it
  }
  std::size_t left = static_cast<std::size_t>(
      std::count(frozen.begin(), frozen.end(), 0));
  double level = 0;
  while (left > 0) {
    double step = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < cap.size(); ++s)
      if (unfrozen[s] > 0) step = std::min(step, rem[s] / unfrozen[s]);
    level += step;
    for (std::size_t s = 0; s < cap.size(); ++s)
      if (unfrozen[s] > 0) rem[s] -= step * unfrozen[s];
    for (std::size_t s = 0; s < cap.size(); ++s) {
      if (unfrozen[s] == 0 || rem[s] > 1e-9 * cap[s]) continue;
      for (const std::uint32_t f : flows_on[s]) {
        if (frozen[f]) continue;
        frozen[f] = 1;
        rate[f] = level;
        --left;
        for (const LinkId l : paths[f]) --unfrozen[slot_of.at(l.value())];
      }
    }
  }
  return rate;
}

void check_rates(const Topology& t,
                 const std::vector<std::span<const LinkId>>& paths,
                 const std::vector<double>& rates, Checks& c) {
  std::unordered_map<std::uint32_t, double> load;
  for (std::size_t f = 0; f < paths.size(); ++f)
    for (const LinkId l : paths[f]) load[l.value()] += rates[f];
  for (const auto& [l, sum] : load) {
    const double cap = t.link(LinkId(l)).capacity;
    c.expect(sum <= cap * (1 + kRateTolerance) + 1.0,
             "link " + std::to_string(l) + " carries " + std::to_string(sum) +
                 " bps over capacity " + std::to_string(cap));
  }
  const std::vector<double> fair = water_fill(t, paths);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    const double slack =
        kRateTolerance * std::max({rates[f], fair[f], 1.0}) * (1 + 1e-9);
    c.expect(std::abs(rates[f] - fair[f]) <= slack,
             "flow rate " + std::to_string(rates[f]) +
                 " differs from max-min " + std::to_string(fair[f]));
  }
}

void check_control_bytes(std::uint64_t bytes, std::uint64_t attempts,
                         std::uint64_t lost, Checks& c) {
  const std::uint64_t expected = 48 * attempts + 32 * (attempts - lost);
  c.expect(bytes == expected, "control bytes " + std::to_string(bytes) +
                                  ", expected 48*" + std::to_string(attempts) +
                                  " + 32*(" + std::to_string(attempts) + " - " +
                                  std::to_string(lost) + ") = " +
                                  std::to_string(expected));
}

std::size_t check_transfers(const Topology& t,
                            const std::vector<FlowInput>& flows,
                            const std::vector<double>& finish, Checks& c) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowInput& f = flows[i];
    if (i >= finish.size() || finish[i] < 0) {
      ++failed;
      c.expect(false, "flow " + std::to_string(i) + " never finished");
      continue;
    }
    const double floor = static_cast<double>(f.size) * 8.0 /
                         host_line_rate(t, f.src) * (1 - 1e-9);
    const double transfer = finish[i] - f.arrival;
    if (transfer < floor) {
      ++failed;
      c.expect(false, "flow " + std::to_string(i) + " took " +
                          std::to_string(transfer) + " s, below line-rate " +
                          std::to_string(floor) + " s");
    }
  }
  return failed;
}

void check_delivered(const std::vector<FlowInput>& flows,
                     const std::vector<double>& delivered, Checks& c) {
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double size = static_cast<double>(flows[i].size);
    const double got = i < delivered.size() ? delivered[i] : 0.0;
    c.expect(std::abs(got - size) <= 1e-6 * size + 1.0,
             "flow " + std::to_string(i) + " delivered " +
                 std::to_string(got) + " of " + std::to_string(size) +
                 " bytes");
  }
}

void check_identical(const std::vector<double>& a,
                     const std::vector<double>& b, Checks& c) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = std::memcmp(&a[i], &b[i], sizeof(double)) == 0;
  c.expect(same, "two runs of one seed gave different simulated metrics");
}

namespace {

// Runs `fn` on a fresh Checks and reports whether it failed.
template <class Fn>
bool fails(Fn fn) {
  Checks c;
  fn(c);
  return !c.ok();
}

}  // namespace

bool self_test(std::string* report) {
  dard::topo::FatTreeParams params;
  params.p = 4;
  const Topology t = dard::topo::build_fat_tree(params);
  std::vector<std::string> broken;
  const auto require = [&](bool wrong_fails, bool right_passes,
                           const char* name) {
    if (!wrong_fails) broken.push_back(std::string(name) + " missed a wrong value");
    if (!right_passes) broken.push_back(std::string(name) + " rejected a right value");
  };

  // Paths: a right set, then a wrong link, a duplicate, a missing path.
  dard::topo::PathRepository repo(t);
  const NodeId a = t.tors().front();
  const NodeId b = t.tors().back();
  const std::vector<Path> good = repo.tor_paths(a, b);
  const bool right = !fails([&](Checks& c) { check_path_set(t, 4, a, b, good, c); });
  auto bad_link = good;
  bad_link[0].links[1] = bad_link[1].links[2];
  require(fails([&](Checks& c) { check_path_set(t, 4, a, b, bad_link, c); }),
          right, "path walk check");
  auto dup = good;
  dup[1] = dup[0];
  require(fails([&](Checks& c) { check_path_set(t, 4, a, b, dup, c); }), right,
          "duplicate path check");
  auto missing = good;
  missing.pop_back();
  require(fails([&](Checks& c) { check_path_set(t, 4, a, b, missing, c); }),
          right, "path count check");

  // Rates: two flows share host a0's uplink, a third runs alone.
  const auto& hosts = t.hosts();
  std::vector<std::vector<LinkId>> owned;
  for (const auto& [s, d] : {std::pair{0, 4}, std::pair{0, 8}, std::pair{6, 12}}) {
    const NodeId st = t.tor_of_host(hosts[s]);
    const NodeId dt = t.tor_of_host(hosts[d]);
    owned.push_back(dard::topo::host_path(t, hosts[s], hosts[d],
                                          repo.tor_paths(st, dt)[0])
                        .links);
  }
  std::vector<std::span<const LinkId>> paths(owned.begin(), owned.end());
  const std::vector<double> fair = water_fill(t, paths);
  const double g = 1e9;
  if (!(std::abs(fair[0] - g / 2) < 1 && std::abs(fair[1] - g / 2) < 1 &&
        std::abs(fair[2] - g) < 1))
    broken.push_back("water-filling gave wrong fixture rates");
  const bool rates_right = !fails([&](Checks& c) { check_rates(t, paths, fair, c); });
  auto skewed = fair;
  skewed[0] *= 0.98;  // feasible but not max-min
  require(fails([&](Checks& c) { check_rates(t, paths, skewed, c); }),
          rates_right, "max-min check");
  auto over = fair;
  over[0] *= 1.5;
  require(fails([&](Checks& c) { check_rates(t, paths, over, c); }),
          rates_right, "feasibility check");

  require(fails([](Checks& c) { check_control_bytes(48 * 10 + 32 * 9 + 1, 10, 1, c); }),
          !fails([](Checks& c) { check_control_bytes(48 * 10 + 32 * 9, 10, 1, c); }),
          "control-bytes check");

  std::vector<FlowInput> flows(2);
  flows[0] = {hosts[0], hosts[5], 125'000'000, 1.0};
  flows[1] = {hosts[1], hosts[9], 125'000'000, 2.0};
  const std::vector<double> finish_ok = {2.5, 3.0};
  const bool transfers_right =
      !fails([&](Checks& c) { check_transfers(t, flows, finish_ok, c); });
  require(fails([&](Checks& c) { check_transfers(t, flows, {1.9, 3.0}, c); }),
          transfers_right, "line-rate check");
  require(fails([&](Checks& c) { check_transfers(t, flows, {2.5, -1.0}, c); }),
          transfers_right, "completion check");

  require(fails([&](Checks& c) { check_delivered(flows, {125e6, 124e6}, c); }),
          !fails([&](Checks& c) { check_delivered(flows, {125e6, 125e6}, c); }),
          "delivered-bytes check");

  const std::vector<double> m = {1.25, 3.5};
  const std::vector<double> m2 = {1.25, std::nextafter(3.5, 4.0)};
  require(fails([&](Checks& c) { check_identical(m, m2, c); }),
          !fails([&](Checks& c) { check_identical(m, m, c); }),
          "determinism check");

  if (report != nullptr) {
    report->clear();
    for (const auto& s : broken) *report += s + "\n";
  }
  return broken.empty();
}

}  // namespace perfbench
