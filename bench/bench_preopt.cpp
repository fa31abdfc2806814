// Reproduces the Section 5.3 pre-optimization measurements: the speed-up
// of the straight C ports ("before SPE-specific optimizations") of
// CHExtract, CCExtract and EHExtract over the PPE — including the famous
// 0.43x correlogram slowdown.
#include <cstdio>

#include "harness.h"

using namespace cellport;
using namespace cellport::bench;

int main() {
  std::printf("== Section 5.3: pre-optimization kernel speed-ups ==\n\n");
  marvel::Dataset data = marvel::make_dataset(3);

  auto ppe = run_reference(sim::cell_ppe(), data);
  CellRun naive = run_cell(data, marvel::Scenario::kSingleSPE,
                           kernels::kSingleBuffer, /*use_naive=*/true);
  CellRun optimized = run_cell(data, marvel::Scenario::kSingleSPE);

  struct Row {
    const char* phase;
    const char* label;
    double paper_naive;
  };
  const Row rows[] = {
      {marvel::kPhaseCh, "CHExtract", 26.41},
      {marvel::kPhaseCc, "CCExtract", 0.43},
      {marvel::kPhaseEh, "EHExtract", 3.85},
  };

  Table t("Straight C port vs PPE (paper Section 5.3 alongside)");
  t.header({"Kernel", "Naive speed-up", "Paper", "After optimization"});
  double naive_cc = 0;
  double naive_ch = 0;
  double naive_eh = 0;
  for (const Row& r : rows) {
    double p = phase_ns(ppe->profiler(), r.phase);
    double n = phase_ns(naive.engine->profiler(), r.phase);
    double o = phase_ns(optimized.engine->profiler(), r.phase);
    double sn = p / n;
    if (r.phase == marvel::kPhaseCc) naive_cc = sn;
    if (r.phase == marvel::kPhaseCh) naive_ch = sn;
    if (r.phase == marvel::kPhaseEh) naive_eh = sn;
    t.row({r.label, Table::num(sn, 2), Table::num(r.paper_naive, 2),
           Table::num(p / o, 2)});
  }
  std::printf("%s\n", t.str().c_str());

  shape_check(naive_cc < 1.0,
              "the unoptimized correlogram runs SLOWER than the PPE "
              "(paper: 0.43x)");
  shape_check(naive_ch > 1.0 && naive_eh > 1.0,
              "CH and EH still gain before optimization");
  shape_check(naive_ch > naive_eh,
              "CH gains more than EH pre-optimization (paper: 26.4 vs 3.9)");
  std::printf(
      "\nThe \"significant difference in these results\" (paper) comes from "
      "each kernel's computation structure: the correlogram's branchy\n"
      "inner compare flushes the hint-less SPU pipeline on every match, "
      "while the histogram's arithmetic survives a scalar port.\n");
  return shape_exit_code();
}
