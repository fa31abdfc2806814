// Reproduces Figure 6: per-kernel execution times on the two reference
// machines, the PPE, and the SPE (the paper plots these on a log scale;
// we print the times and the pairwise ratios the figure conveys).
#include <cmath>
#include <cstdio>

#include "harness.h"

using namespace cellport;
using namespace cellport::bench;

int main() {
  std::printf("== Figure 6: kernel execution times across machines ==\n\n");
  marvel::Dataset data = marvel::make_dataset(5);
  int n = static_cast<int>(data.images.size());

  auto desk = run_reference(sim::desktop_pentium_d(), data);
  auto lap = run_reference(sim::laptop_pentium_m(), data);
  auto ppe = run_reference(sim::cell_ppe(), data);
  CellRun cell = run_cell(data, marvel::Scenario::kSingleSPE);

  const char* phases[] = {marvel::kPhaseCh, marvel::kPhaseCc,
                          marvel::kPhaseTx, marvel::kPhaseEh,
                          marvel::kPhaseCd};

  Table t("Per-image kernel times [ms] (Figure 6 uses a log scale)");
  t.header({"Kernel", "Laptop", "Desktop", "PPE", "SPE", "log10(PPE/SPE)"});
  bool ordering_ok = true;
  for (const char* phase : phases) {
    double tl = phase_ns(lap->profiler(), phase) / n;
    double td = phase_ns(desk->profiler(), phase) / n;
    double tp = phase_ns(ppe->profiler(), phase) / n;
    double ts = phase_ns(cell.engine->profiler(), phase) / n;
    ordering_ok = ordering_ok && tp > tl && tl > td && td > ts;
    t.row({phase, Table::num(sim::ns_to_ms(tl), 3),
           Table::num(sim::ns_to_ms(td), 3),
           Table::num(sim::ns_to_ms(tp), 3),
           Table::num(sim::ns_to_ms(ts), 3),
           Table::num(std::log10(tp / ts), 2)});
  }
  std::printf("%s\n", t.str().c_str());

  shape_check(ordering_ok,
              "every kernel orders PPE > Laptop > Desktop > SPE (the "
              "figure's bar ordering)");

  // ASCII rendition of the log-scale bars.
  std::printf("\nLog-scale bars (each # is ~0.25 decades above 10us):\n");
  for (const char* phase : phases) {
    std::printf("  %-11s", phase);
    struct {
      const char* m;
      double ns;
    } bars[] = {{"Laptop ", phase_ns(lap->profiler(), phase) / n},
                {"Desktop", phase_ns(desk->profiler(), phase) / n},
                {"PPE    ", phase_ns(ppe->profiler(), phase) / n},
                {"SPE    ", phase_ns(cell.engine->profiler(), phase) / n}};
    std::printf("\n");
    for (const auto& b : bars) {
      int len = static_cast<int>(
          std::max(0.0, (std::log10(b.ns) - 4.0) * 4.0));
      std::printf("    %s |", b.m);
      for (int i = 0; i < len; ++i) std::printf("#");
      std::printf(" %.3f ms\n", sim::ns_to_ms(b.ns));
    }
  }
  return shape_exit_code();
}
