// Correctness checks computed apart from the program under test.
//
// Each check reads the program's outputs (paths, rates, completion times,
// control bytes) and recomputes what they must be from first principles:
// the fat-tree's shape, a max-min water-filling of its own, the wire sizes
// of DARD's query messages, and the physics of a host's line rate.
// self_test() feeds every check a deliberately wrong value and requires it
// to fail, so a check that silently passes everything shows up.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "inputs.h"
#include "topology/paths.h"
#include "topology/topology.h"

namespace perfbench {

// Collects failures; keeps the first few messages, counts all.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const { return failures_ == 0; }
  [[nodiscard]] std::size_t failures() const { return failures_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::size_t failures_ = 0;
  std::vector<std::string> messages_;
};

// A fat-tree ToR pair's path set: every path a valley-free walk from
// src_tor to dst_tor over existing links, no duplicates, and (p/2)^2 paths
// between pods, p/2 within a pod and one within a ToR.
void check_path_set(const dard::topo::Topology& t, int p, NodeId src_tor,
                    NodeId dst_tor, const std::vector<dard::topo::Path>& set,
                    Checks& c);

// Max-min fair rates by progressive filling over the given link lists,
// with link capacities read from the topology.
std::vector<double> water_fill(
    const dard::topo::Topology& t,
    const std::vector<std::span<const dard::LinkId>>& paths);

// Rates feasible on every link, and equal to water_fill() within the
// simulator's 0.1% rescheduling tolerance.
void check_rates(const dard::topo::Topology& t,
                 const std::vector<std::span<const dard::LinkId>>& paths,
                 const std::vector<double>& rates, Checks& c);

// DARD control traffic: 48 B per query attempt plus a 32 B reply for each
// attempt that was not lost.
void check_control_bytes(std::uint64_t bytes, std::uint64_t attempts,
                         std::uint64_t lost, Checks& c);

// Every flow finished (finish >= 0) no sooner than size * 8 / line rate
// after it arrived. Returns the number of flows that failed.
std::size_t check_transfers(const dard::topo::Topology& t,
                            const std::vector<FlowInput>& flows,
                            const std::vector<double>& finish, Checks& c);

// Bytes a flow received (integrated from its rates) equal its size.
void check_delivered(const std::vector<FlowInput>& flows,
                     const std::vector<double>& delivered, Checks& c);

// Two runs' simulated metrics are bit-identical.
void check_identical(const std::vector<double>& a,
                     const std::vector<double>& b, Checks& c);

// Runs every check above on a small fixture with a deliberately wrong
// value and requires each to fail (and to pass on the right value).
bool self_test(std::string* report);

}  // namespace perfbench
