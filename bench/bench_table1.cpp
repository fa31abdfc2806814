// Reproduces Table 1: per-kernel SPE-vs-PPE speed-ups with coverage.
#include <cstdio>

#include "harness.h"

using namespace cellport;
using namespace cellport::bench;

int main(int argc, char** argv) {
  Observability obs(parse_options(argc, argv));
  std::printf("== Table 1: SPE vs PPE kernel speed-ups ==\n\n");
  marvel::Dataset data = marvel::make_dataset(5);

  auto ppe = run_reference(sim::cell_ppe(), data);
  CellRun cell = run_cell(data, marvel::Scenario::kSingleSPE);

  struct Row {
    const char* phase;
    const char* label;
    double paper_speedup;
    double paper_coverage;
  };
  const Row rows[] = {
      {marvel::kPhaseCh, "CH Extract", 53.67, 8},
      {marvel::kPhaseCc, "CC Extract", 52.23, 54},
      {marvel::kPhaseTx, "TX Extract", 15.99, 6},
      {marvel::kPhaseEh, "EH Extract", 65.94, 28},
      {marvel::kPhaseCd, "ConceptDet", 10.80, 2},
  };

  BenchArtifact artifact("table1");
  double total = total_ns(ppe->profiler());
  Table t("Table 1 (paper values alongside)");
  t.header({"Kernel", "Speed-up", "Coverage[%]", "Paper speed-up",
            "Paper cov[%]"});
  double speedups[5];
  int i = 0;
  for (const Row& r : rows) {
    double p = phase_ns(ppe->profiler(), r.phase);
    double s = phase_ns(cell.engine->profiler(), r.phase);
    speedups[i] = p / s;
    t.row({r.label, Table::num(speedups[i], 2),
           Table::num(100 * p / total, 0), Table::num(r.paper_speedup, 2),
           Table::num(r.paper_coverage, 0)});
    artifact.add_row(r.label, {{"speedup", speedups[i]},
                               {"coverage_pct", 100 * p / total},
                               {"ppe_ns", p},
                               {"spe_ns", s},
                               {"paper_speedup", r.paper_speedup}});
    ++i;
  }
  std::printf("%s\n", t.str().c_str());

  // Shape claims of Table 1.
  artifact.shape(speedups[3] > speedups[0] && speedups[3] > speedups[2] &&
                     speedups[3] > speedups[4],
                 "EH Extract achieves the largest speed-up");
  artifact.shape(speedups[4] < speedups[1] && speedups[4] < speedups[3],
                 "ConceptDet gains least among the big kernels");
  bool all_win = true;
  for (double s : speedups) all_win = all_win && s > 1.0;
  artifact.shape(all_win, "every optimized kernel beats the PPE");
  artifact.shape(speedups[1] > 10.0,
                 "the dominant correlogram kernel gains an order of "
                 "magnitude");

  sim::collect_metrics(*cell.machine, cell.machine->metrics());
  artifact.add_machine_metrics(cell.machine->metrics());
  artifact.write();
  obs.finish();
  obs.write_metrics(*cell.machine);
  return shape_exit_code();
}
