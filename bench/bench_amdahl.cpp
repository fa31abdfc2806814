// Reproduces Section 4.2's performance-model analysis: the worked
// Amdahl example (Kfr = 10%, speed-up 10 vs 100), plus the equation
// (1)/(2)/(3) evaluations for the paper's Table 1 kernel set.
#include <cmath>
#include <cstdio>

#include "harness.h"
#include "port/amdahl.h"
#include "port/effort.h"
#include "port/schedule.h"
#include "support/table.h"

using namespace cellport;
using namespace cellport::bench;

int main() {
  std::printf("== Section 4.2: the performance model ==\n\n");

  // The worked example.
  const double s10 = port::estimate_single({"k", 0.10, 10.0});
  const double s100 = port::estimate_single({"k", 0.10, 100.0});
  Table ex("Worked example (paper: Kfr=10%, 10x -> 1.0989, 100x -> 1.1098)");
  ex.header({"Kspeedup", "Sapp (measured)", "Sapp (paper)"});
  ex.row({"10", Table::num(s10, 4), "1.0989"});
  ex.row({"100", Table::num(s100, 4), "1.1098"});
  std::printf("%s\n", ex.str().c_str());
  // Eq. 1 gives 1.09890 and 1.10988; the paper prints the latter
  // truncated to 1.1098, so both checks allow one unit in the 4th digit.
  shape_check(std::abs(s10 - 1.0989) < 1e-4, "Sapp at 10x is 1.0989");
  shape_check(std::abs(s100 - 1.1098) < 1e-4,
              "Sapp at 100x is the paper's 1.1098 (1.1099 rounded)");
  std::printf(
      "Conclusion reproduced: optimizing the kernel 10x->100x gains only "
      "%.4f overall — \"not worth it\".\n\n",
      port::optimization_gain({{{"k", 0.10, 10.0}}}, 0, 100.0));

  // Equations 2 and 3 on the paper's published Table 1 numbers.
  std::vector<port::KernelPoint> paper = {
      {"CHExtract", 0.08, 53.67}, {"CCExtract", 0.54, 52.23},
      {"TXExtract", 0.06, 15.99}, {"EHExtract", 0.28, 65.94},
      {"ConceptDet", 0.02, 10.80}};

  double seq = port::estimate_sequential(paper);
  port::StaticSchedule par(8);
  par.add_group({paper[0], paper[1], paper[2], paper[3]});
  par.add_group({paper[4]});

  Table eq("Equations (2)/(3) on the paper's Table 1 kernels (vs PPE)");
  eq.header({"Schedule", "Sapp vs PPE", "Sapp vs Desktop (/3.2)"});
  eq.row({"sequential (Eq. 2, Fig 4b)", Table::num(seq, 2),
          Table::num(seq / 3.2, 2)});
  eq.row({"parallel extracts (Eq. 3, Fig 4c)",
          Table::num(par.estimated_speedup(), 2),
          Table::num(par.estimated_speedup() / 3.2, 2)});
  std::printf("%s\n", eq.str().c_str());

  // Porting-effort ranking: which kernel was worth porting first?
  port::PortingEvaluator eval({{"CHExtract", 0.08, 1.0},
                               {"CCExtract", 0.54, 1.0},
                               {"TXExtract", 0.06, 1.0},
                               {"EHExtract", 0.28, 1.0},
                               {"ConceptDet", 0.02, 1.0}});
  auto ranked = eval.rank({{"port CH", 0, 53.67, 3},
                           {"port CC", 1, 52.23, 5},
                           {"port TX", 2, 15.99, 4},
                           {"port EH", 3, 65.94, 4},
                           {"port CD", 4, 10.80, 2}});
  Table rk("Porting steps ranked by application gain per effort-day");
  rk.header({"Step", "Sapp after", "Marginal gain", "Gain/day"});
  for (const auto& r : ranked) {
    rk.row({r.step.description, Table::num(r.app_speedup_after, 3),
            Table::num(r.marginal_gain, 3),
            Table::num(r.gain_per_effort, 3)});
  }
  std::printf("%s\n", rk.str().c_str());
  std::printf("The correlogram (54%% coverage) dominates the ranking, as "
              "the paper's roadmap implies.\n");
  return shape_exit_code();
}
