// perfbench — end-to-end benchmark of the tuner stack.
//
//   perfbench --workload paper-eval|pool-200k|serve-open|measure-plane
//             --seed N --seconds S --trace 0|1 --bin-dir DIR
//             --work-dir DIR --reference FILE [--describe TEXT] [--record]
//
// Prints a human-readable report to stderr and, as the last line of
// stdout, one JSON object {"correct","attempted","failed","metrics"}.
// Exits 1 when an output check fails, 2 on a usage error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness/workloads.h"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --work-dir DIR --reference FILE "
               "[--describe TEXT] [--record]\n";
  return 2;
}

}  // namespace

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record") {
      options.record = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--bin-dir") options.bin_dir = value;
    else if (arg == "--work-dir") options.work_dir = value;
    else if (arg == "--reference") options.reference = value;
    else if (arg == "--describe") options.describe = value;
    else return usage(("unknown option " + arg).c_str());
  }
  if (options.seconds <= 0.0) return usage("--seconds must be > 0");

  perfbench::Report report;
  try {
    if (options.workload == "paper-eval") {
      perfbench::run_paper_eval(options, report);
    } else if (options.workload == "pool-200k") {
      perfbench::run_pool_200k(options, report);
    } else if (options.workload == "measure-plane") {
      perfbench::run_measure_plane(options, report);
    } else if (options.workload == "serve-open") {
      perfbench::run_serve_open(options, report);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
  }
  report.print_details(options);
  std::cout << report.result_line() << std::endl;
  return report.correct() ? 0 : 1;
}
