// The benchmark's workloads and the run that measures one of them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // "dard" (the benchmark) or "ecmp" (reference figures on the same inputs).
  std::string scheduler = "dard";
  // Where a traced run writes its per-layer file; empty = no file.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Failed-check messages and other notes, printed to stderr.
  std::vector<std::string> notes;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Runs one workload as Options describe: whole rounds of the seeded inputs
// until `seconds` have passed (at least two untraced rounds, or one
// untraced + traced pair with --trace 1), then the correctness checks.
Outcome run_workload(const Options& opt, Clock::time_point process_start);

}  // namespace perfbench
