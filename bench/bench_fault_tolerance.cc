// Degradation curves under injected measurement faults: RS, AL, and CEAL
// tune LV (exec, 50 samples) while each run attempt fails with
// probability p in {0, 0.05, 0.1, 0.2, 0.3, 0.4}. Failed attempts still
// charge budget (up to 3 attempts per configuration), so the usable
// sample count shrinks as p grows; the interesting question is how
// gracefully each tuner's recommendation quality decays.
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"
#include "tuner/evaluation.h"

int main() {
  using namespace ceal;
  using tuner::Objective;
  bench::banner(
      "Recommendation quality vs injected measurement failure rate",
      "fault-tolerance extension");
  const auto& env = bench::Env::instance();

  const double fault_rates[] = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4};
  const char* algos[] = {"RS", "AL", "CEAL"};
  const std::size_t w = env.index_of("LV");
  const std::size_t budget = 50;

  Table table({"fault rate", "RS", "AL", "CEAL"});
  CsvWriter csv("fault_tolerance.csv",
                {"fault_rate", "algorithm", "norm_perf", "top3_recall",
                 "mean_runs_used"});
  for (const double rate : fault_rates) {
    tuner::TuningProblem problem =
        env.problem(w, Objective::kExecTime, /*history=*/false);
    problem.measurement.faults.fail_prob = rate;
    problem.measurement.max_attempts = 3;

    std::vector<std::string> row{bench::fmt(rate, 2)};
    for (const char* name : algos) {
      const auto algo = bench::make_algorithm(name, env, w);
      const auto s = bench::evaluate(problem, *algo, budget);
      row.push_back(bench::fmt(s.mean_norm_perf));
      csv.add_row({bench::fmt(rate, 2), name, bench::fmt(s.mean_norm_perf),
                   bench::fmt(s.mean_recall[2], 1),
                   bench::fmt(s.mean_runs_used, 1)});
      std::cout << "." << std::flush;
    }
    table.add_row(row);
  }
  std::cout << "\n\n" << table;
  std::cout << "\nExpected shape: every algorithm degrades as the failure "
               "rate grows (fewer usable samples\nfor the same budget); "
               "CEAL stays closest to its fault-free quality because the "
               "low-fidelity\nmodel needs no workflow runs. Series in "
               "fault_tolerance.csv.\n";
  csv.commit();
  return 0;
}
