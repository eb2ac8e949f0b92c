// The benchmark's workloads. Each runs its set-up and timed phase from
// the options, checks the outputs, and fills the report: every
// end-to-end metric in an untimed run, every per-layer metric in a
// traced run (options.trace), which first repeats the untraced phase to
// measure the tracing overhead.
#pragma once

#include <cstdint>

#include "harness/report.h"

namespace perfbench {

void run_paper_eval(const Options& options, Report& report);
void run_pool_200k(const Options& options, Report& report);
void run_measure_plane(const Options& options, Report& report);
void run_serve_open(const Options& options, Report& report);

/// Seed of stream `stream` derived from the workload seed (splitmix64),
/// so sessions of one run draw independent inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
