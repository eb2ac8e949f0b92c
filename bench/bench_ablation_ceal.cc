// Ablation study of CEAL's design choices (DESIGN.md §6):
//   full            — Algorithm 1 as shipped
//   no-switch       — never promote M_H for sample selection
//   no-topup        — no random-sample injection on M_H bias (lines 20-22)
//   no-ensemble     — final ranking by M_H alone (strict line 28)
//   no-low-fidelity — m_R = 5% (component models nearly untrained), the
//                     closest Alg.-1-shaped analogue of dropping Phase 1
// on LV for both objectives, without histories.
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"
#include "tuner/ceal.h"
#include "tuner/evaluation.h"

int main() {
  using namespace ceal;
  using tuner::CealParams;
  using tuner::Objective;
  bench::banner("CEAL design-choice ablations (LV, no histories)",
                "DESIGN.md ablation index");
  const auto& env = bench::Env::instance();
  const std::size_t lv = env.index_of("LV");

  struct Variant {
    const char* name;
    CealParams params;
  };
  std::vector<Variant> variants;
  variants.push_back({"full", CealParams::no_history()});
  {
    CealParams p = CealParams::no_history();
    p.enable_switch_detection = false;
    variants.push_back({"no-switch", p});
  }
  {
    CealParams p = CealParams::no_history();
    p.enable_random_topup = false;
    variants.push_back({"no-topup", p});
  }
  {
    CealParams p = CealParams::no_history();
    p.ensemble_final = false;
    variants.push_back({"no-ensemble", p});
  }
  {
    CealParams p = CealParams::no_history();
    p.mR_fraction = 0.05;
    variants.push_back({"no-low-fidelity", p});
  }

  Table table({"variant", "exec norm (m=50)", "comp norm (m=25)"});
  CsvWriter csv("ablation_ceal.csv",
                {"variant", "objective", "samples", "norm_perf"});
  for (const auto& variant : variants) {
    std::vector<std::string> row{variant.name};
    for (const auto [obj, budget] :
         {std::pair{Objective::kExecTime, std::size_t{50}},
          std::pair{Objective::kComputerTime, std::size_t{25}}}) {
      const tuner::Ceal algo(variant.params);
      const auto prob = env.problem(lv, obj, /*history=*/false);
      const auto s = bench::evaluate(prob, algo, budget);
      row.push_back(bench::fmt(s.mean_norm_perf));
      csv.add_row({variant.name, tuner::objective_name(obj),
                   std::to_string(budget), bench::fmt(s.mean_norm_perf)});
      std::cout << "." << std::flush;
    }
    table.add_row(row);
  }
  std::cout << "\n\n" << table;
  std::cout << "\nExpected shape: the full configuration is at least as "
               "good as every ablation; dropping the\nlow-fidelity "
               "bootstrap hurts the most.\n";
  csv.commit();
  return 0;
}
