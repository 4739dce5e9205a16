// dard_perfbench: runs one benchmark workload and prints its metrics.
//
//   dard_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scheduler dard|ecmp] [--out-dir DIR]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1). Notes and failed checks go to stderr. Exit status 0 means the
// run completed, whatever its checks found; 2 means bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

// The earliest point the benchmark controls: set-up time counts from here.
const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

int usage() {
  std::fprintf(stderr,
               "usage: dard_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scheduler dard|ecmp] [--out-dir DIR]\n"
               "workloads:");
  for (const auto& w : perfbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_seed(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0' && s[0] != '-';
}

bool parse_number(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_seed(value, &opt.seed)) return usage();
    } else if (flag == "--seconds" && parse_number(value, &number) &&
               number > 0) {
      opt.seconds = number;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 ||
                                     std::strcmp(value, "1") == 0)) {
      opt.trace = value[0] == '1';
    } else if (flag == "--scheduler" && (std::strcmp(value, "dard") == 0 ||
                                         std::strcmp(value, "ecmp") == 0)) {
      opt.scheduler = value;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == opt.workload;
  if (!have_workload || !known) return usage();

  const perfbench::Outcome out = perfbench::run_workload(opt, kProcessStart);
  for (const auto& note : out.notes) std::fprintf(stderr, "%s\n", note.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
