// Reproduces Figure 7: measured application speed-ups for the Single-SPE
// and Parallel-SPE scenarios on image sets of 1, 10 and 50 images,
// against all three reference machines (PPE, Desktop, Laptop).
//
// With --trace=<file> the 1-image experiment is recorded: the resulting
// timeline contrasts the SingleSPE machine (kernels serialized, one busy
// lane at a time) with the MultiSPE machine (four extraction lanes
// overlapping). The 10/50-image sweeps run with the session disabled to
// keep the trace small; simulated results are identical either way.
#include <cstdio>

#include "harness.h"

using namespace cellport;
using namespace cellport::bench;

int main(int argc, char** argv) {
  Observability obs(parse_options(argc, argv));
  std::printf("== Figure 7: application speed-ups, all experiments ==\n\n");

  BenchArtifact artifact("fig7");
  bool monotone_sets = true;
  double last_single_vs_desk = 0;
  double one_image_multi_vs_desk = 0;
  double fifty_multi_vs_desk = 0;
  std::unique_ptr<sim::Machine> metrics_machine;

  for (int count : {1, 10, 50}) {
    if (obs.session() != nullptr) obs.session()->set_enabled(count == 1);
    marvel::Dataset data = marvel::make_dataset(count);
    auto ppe = run_reference(sim::cell_ppe(), data);
    auto desk = run_reference(sim::desktop_pentium_d(), data);
    auto lap = run_reference(sim::laptop_pentium_m(), data);
    CellRun single = run_cell(data, marvel::Scenario::kSingleSPE);
    CellRun multi = run_cell(data, marvel::Scenario::kMultiSPE);

    // Whole-run times including the one-time overhead (the image-set
    // experiments of Section 5.5 measure end-to-end batches).
    auto whole = [&](port::Profiler& prof, sim::SimTime startup) {
      return total_ns(prof) + startup;
    };
    double t_ppe = whole(ppe->profiler(), ppe->startup_ns());
    double t_desk = whole(desk->profiler(), desk->startup_ns());
    double t_lap = whole(lap->profiler(), lap->startup_ns());
    double t_single =
        whole(single.engine->profiler(), single.engine->startup_ns());
    double t_multi =
        whole(multi.engine->profiler(), multi.engine->startup_ns());

    Table t("Image set of " + std::to_string(count) +
            " (speed-up of each Cell scenario over each reference)");
    t.header({"Scenario", "vs PPE", "vs Desktop", "vs Laptop"});
    t.row({"Cell SingleSPE", Table::num(t_ppe / t_single, 2),
           Table::num(t_desk / t_single, 2),
           Table::num(t_lap / t_single, 2)});
    t.row({"Cell MultiSPE", Table::num(t_ppe / t_multi, 2),
           Table::num(t_desk / t_multi, 2),
           Table::num(t_lap / t_multi, 2)});
    t.row({"(PPE itself)", "1.00", Table::num(t_desk / t_ppe, 2),
           Table::num(t_lap / t_ppe, 2)});
    std::printf("%s\n", t.str().c_str());

    std::string set = "set" + std::to_string(count);
    artifact.add_row(set + ".SingleSPE", {{"images", count},
                                          {"vs_ppe", t_ppe / t_single},
                                          {"vs_desktop", t_desk / t_single},
                                          {"vs_laptop", t_lap / t_single},
                                          {"total_ns", t_single}});
    artifact.add_row(set + ".MultiSPE", {{"images", count},
                                         {"vs_ppe", t_ppe / t_multi},
                                         {"vs_desktop", t_desk / t_multi},
                                         {"vs_laptop", t_lap / t_multi},
                                         {"total_ns", t_multi}});

    double single_vs_desk = t_desk / t_single;
    if (count > 1 && single_vs_desk < last_single_vs_desk) {
      monotone_sets = false;
    }
    last_single_vs_desk = single_vs_desk;
    if (count == 1) one_image_multi_vs_desk = t_desk / t_multi;
    if (count == 50) {
      fifty_multi_vs_desk = t_desk / t_multi;
      sim::collect_metrics(*multi.machine, multi.machine->metrics());
      artifact.add_machine_metrics(multi.machine->metrics(), "multi_spe.");
      metrics_machine = std::move(multi.machine);
    }
  }

  artifact.shape(monotone_sets,
                 "speed-up grows with the image-set size (one-time overhead "
                 "amortizes — the figure's 1 < 10 < 50 trend)");
  artifact.shape(fifty_multi_vs_desk > one_image_multi_vs_desk,
                 "the 50-image parallel run shows the largest win");
  artifact.shape(fifty_multi_vs_desk > 2.0,
                 "the Cell decisively beats the Desktop on large sets");
  std::printf(
      "\nNote: the paper's absolute speed-ups (10.9-15.6x vs Desktop) rest "
      "on kernel gains of 52-66x that our bit-faithful SIMD ports do not\n"
      "reach (see EXPERIMENTS.md); the figure's orderings and trends are "
      "reproduced at a proportionally smaller scale.\n");
  artifact.write();
  if (obs.session() != nullptr) obs.session()->set_enabled(true);
  obs.finish();
  if (metrics_machine != nullptr) obs.write_metrics(*metrics_machine);
  return shape_exit_code();
}
