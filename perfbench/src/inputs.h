// Seeded workload inputs: topologies and flow lists.
//
// Everything the simulator receives is generated here from the benchmark's
// --seed with a self-contained generator (SplitMix64), so the same seed
// gives the same flows on any toolchain and nothing depends on the
// program's own RNG or traffic generators.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "topology/topology.h"

namespace perfbench {

using dard::Bytes;
using dard::NodeId;
using dard::Seconds;

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  // Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double exponential(double mean);

 private:
  std::uint64_t state_;
};

// One flow as the benchmark hands it to a substrate.
struct FlowInput {
  NodeId src;
  NodeId dst;
  Bytes size = 0;
  Seconds arrival = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 80;
};

// VL2 data-mining flow sizes as (packets of 1460 B, cumulative fraction),
// interpolated linearly between points. Mean ~5,100 packets (~7.4 MB);
// the largest flow is ~1 GB.
struct CdfPoint {
  double packets;
  double fraction;
};
extern const std::vector<CdfPoint> kDataMiningCdf;
inline constexpr Bytes kCdfPacketBytes = 1460;

Bytes sample_data_mining(SplitMix64& rng);

// `per_host` flows from every host at uniform random times in
// [0, duration) (Poisson arrivals conditioned on their count, so the offered
// load is the same for every seed), each to a uniformly random other host,
// `size` bytes each. Sorted by arrival.
std::vector<FlowInput> random_pattern(const dard::topo::Topology& t,
                                      std::size_t per_host, Seconds duration,
                                      Bytes size, std::uint64_t seed);

// As random_pattern, but host i always sends to host (i + stride) mod N.
std::vector<FlowInput> stride_pattern(const dard::topo::Topology& t,
                                      std::size_t per_host, Seconds duration,
                                      Bytes size, int stride,
                                      std::uint64_t seed);

// One aggregate Poisson stream of `arrivals` flows at `rate` flows/s/host
// (aggregate rate = rate * hosts), uniformly random endpoints, data-mining
// sizes.
std::vector<FlowInput> data_mining_soak(const dard::topo::Topology& t,
                                        double rate, std::size_t arrivals,
                                        std::uint64_t seed);

// Line rate of a host's NIC, read from its uplink.
dard::Bps host_line_rate(const dard::topo::Topology& t, NodeId host);

}  // namespace perfbench
