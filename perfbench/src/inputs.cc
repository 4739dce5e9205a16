#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double SplitMix64::exponential(double mean) {
  // 1 - u is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

const std::vector<CdfPoint> kDataMiningCdf = {
    {1, 0.0},    {1, 0.5},       {2, 0.6},      {3, 0.7},
    {7, 0.8},    {267, 0.9},     {2107, 0.95},  {66667, 0.99},
    {666667, 1.0},
};

Bytes sample_data_mining(SplitMix64& rng) {
  const double u = rng.uniform();
  for (std::size_t i = 1; i < kDataMiningCdf.size(); ++i) {
    const CdfPoint& lo = kDataMiningCdf[i - 1];
    const CdfPoint& hi = kDataMiningCdf[i];
    if (u >= hi.fraction) continue;
    const double span = hi.fraction - lo.fraction;
    const double frac = span > 0 ? (u - lo.fraction) / span : 0.0;
    const double packets = lo.packets + frac * (hi.packets - lo.packets);
    return static_cast<Bytes>(std::ceil(packets)) * kCdfPacketBytes;
  }
  return static_cast<Bytes>(kDataMiningCdf.back().packets) * kCdfPacketBytes;
}

namespace {

std::uint16_t port_for(std::size_t index) {
  return static_cast<std::uint16_t>(1 + index % 65535);
}

// Exactly `per_host` arrivals per host at uniform random times in
// [0, duration) -- a Poisson process conditioned on its count, so every
// seed offers the same load -- merged by arrival time. `dst_of` picks each
// flow's destination from the source's index.
template <class DstOf>
std::vector<FlowInput> per_host_arrivals(const dard::topo::Topology& t,
                                         std::size_t per_host,
                                         Seconds duration, Bytes size,
                                         std::uint64_t seed, DstOf dst_of) {
  const auto& hosts = t.hosts();
  SplitMix64 rng(seed);
  std::vector<FlowInput> flows;
  flows.reserve(hosts.size() * per_host);
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    for (std::size_t k = 0; k < per_host; ++k) {
      FlowInput f;
      f.src = hosts[h];
      f.dst = hosts[dst_of(h, rng)];
      f.size = size;
      f.arrival = rng.uniform() * duration;
      flows.push_back(f);
    }
  }
  std::stable_sort(flows.begin(), flows.end(),
                   [](const FlowInput& a, const FlowInput& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < flows.size(); ++i)
    flows[i].src_port = port_for(i);
  return flows;
}

}  // namespace

std::vector<FlowInput> random_pattern(const dard::topo::Topology& t,
                                      std::size_t per_host, Seconds duration,
                                      Bytes size, std::uint64_t seed) {
  const std::size_t n = t.hosts().size();
  return per_host_arrivals(t, per_host, duration, size, seed,
                          [n](std::size_t h, SplitMix64& rng) {
                            const std::size_t d = rng.below(n - 1);
                            return d >= h ? d + 1 : d;
                          });
}

std::vector<FlowInput> stride_pattern(const dard::topo::Topology& t,
                                      std::size_t per_host, Seconds duration,
                                      Bytes size, int stride,
                                      std::uint64_t seed) {
  const std::size_t n = t.hosts().size();
  return per_host_arrivals(t, per_host, duration, size, seed,
                          [n, stride](std::size_t h, SplitMix64&) {
                            return (h + static_cast<std::size_t>(stride)) % n;
                          });
}

std::vector<FlowInput> data_mining_soak(const dard::topo::Topology& t,
                                        double rate, std::size_t arrivals,
                                        std::uint64_t seed) {
  const auto& hosts = t.hosts();
  const std::size_t n = hosts.size();
  const double mean_gap = 1.0 / (rate * static_cast<double>(n));
  SplitMix64 rng(seed);
  std::vector<FlowInput> flows(arrivals);
  Seconds at = 0;
  for (std::size_t i = 0; i < arrivals; ++i) {
    at += rng.exponential(mean_gap);
    FlowInput& f = flows[i];
    const std::size_t s = rng.below(n);
    std::size_t d = rng.below(n - 1);
    if (d >= s) ++d;
    f.src = hosts[s];
    f.dst = hosts[d];
    f.size = sample_data_mining(rng);
    f.arrival = at;
    f.src_port = port_for(i);
  }
  return flows;
}

dard::Bps host_line_rate(const dard::topo::Topology& t, NodeId host) {
  const auto& out = t.out_links(host);
  DCN_CHECK_MSG(out.size() == 1, "a host has exactly one NIC uplink");
  return t.link(out.front()).capacity;
}

}  // namespace perfbench
