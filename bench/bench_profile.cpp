// Reproduces the Section 5.2 profiling experiment: the per-image kernel
// coverage that drives kernel identification, the 1-image vs 50-image
// extraction+detection share, the cross-machine slowdowns, and the
// one-time overhead shares.
#include <cstdio>

#include "harness.h"

using namespace cellport;
using namespace cellport::bench;

namespace {

struct PaperCoverage {
  const char* phase;
  double paper_pct;
};

const PaperCoverage kPaper[] = {
    {marvel::kPhaseCc, 54.0}, {marvel::kPhaseEh, 28.0},
    {marvel::kPhaseCh, 8.0},  {marvel::kPhaseTx, 6.0},
    {marvel::kPhaseCd, 2.0},  {marvel::kPhasePreprocess, 2.0},
};

}  // namespace

int main() {
  std::printf("== Section 5.2: profiling & kernel identification ==\n\n");
  marvel::Dataset one = marvel::make_dataset(1);
  marvel::Dataset fifty = marvel::make_dataset(50);

  // --- per-image coverage on the PPE (kernel identification) ---
  auto ppe1 = run_reference(sim::cell_ppe(), one);
  double total1 = total_ns(ppe1->profiler());

  Table cov("Per-image PPE coverage (paper values from Section 5.2)");
  cov.header({"Phase", "Measured[%]", "Paper[%]", "Time[ms]"});
  for (const auto& p : kPaper) {
    double ns = phase_ns(ppe1->profiler(), p.phase);
    cov.row({p.phase, Table::num(100.0 * ns / total1, 1),
             Table::num(p.paper_pct, 0), Table::num(sim::ns_to_ms(ns), 2)});
  }
  std::printf("%s\n", cov.str().c_str());
  double cc = phase_ns(ppe1->profiler(), marvel::kPhaseCc);
  double eh = phase_ns(ppe1->profiler(), marvel::kPhaseEh);
  double ch = phase_ns(ppe1->profiler(), marvel::kPhaseCh);
  shape_check(cc / total1 > 0.45, "correlogram dominates (>45%)");
  shape_check(eh > ch, "edge histogram is the second hotspot");

  // --- extraction+detection share, 1 vs 50 images ---
  // The paper's two statements ("87% for one image, the rest being
  // preprocessing" vs "the one-time overhead is 60% of the one-image
  // total") only reconcile if the 87% excludes the one-time overhead;
  // both views are reported.
  auto ppe50 = run_reference(sim::cell_ppe(), fifty);
  auto core_share = [](marvel::ReferenceEngine& e, bool with_startup) {
    double core = phase_ns(e.profiler(), marvel::kPhaseCh) +
                  phase_ns(e.profiler(), marvel::kPhaseCc) +
                  phase_ns(e.profiler(), marvel::kPhaseTx) +
                  phase_ns(e.profiler(), marvel::kPhaseEh) +
                  phase_ns(e.profiler(), marvel::kPhaseCd);
    double all = total_ns(e.profiler()) +
                 (with_startup ? e.startup_ns() : 0.0);
    return core / all;
  };
  Table sh("Extraction+detection share of runtime (paper: 87% / 96%)");
  sh.header({"Image set", "excl. one-time[%]", "incl. one-time[%]",
             "Paper[%]"});
  sh.row({"1 image", Table::num(100 * core_share(*ppe1, false), 1),
          Table::num(100 * core_share(*ppe1, true), 1), "87"});
  sh.row({"50 images", Table::num(100 * core_share(*ppe50, false), 1),
          Table::num(100 * core_share(*ppe50, true), 1), "96"});
  std::printf("%s\n", sh.str().c_str());
  shape_check(core_share(*ppe50, true) > core_share(*ppe1, true),
              "one-time overhead amortizes over larger sets");
  shape_check(core_share(*ppe1, false) > 0.85,
              "extraction+detection dominates the per-image work (87%)");

  // --- cross-machine slowdowns ---
  auto desk = run_reference(sim::desktop_pentium_d(), one);
  auto lap = run_reference(sim::laptop_pentium_m(), one);
  auto kernel_time = [](marvel::ReferenceEngine& e) {
    return phase_ns(e.profiler(), marvel::kPhaseCh) +
           phase_ns(e.profiler(), marvel::kPhaseCc) +
           phase_ns(e.profiler(), marvel::kPhaseTx) +
           phase_ns(e.profiler(), marvel::kPhaseEh) +
           phase_ns(e.profiler(), marvel::kPhaseCd);
  };
  double slow_lap = kernel_time(*ppe1) / kernel_time(*lap);
  double slow_desk = kernel_time(*ppe1) / kernel_time(*desk);
  double pre_lap = phase_ns(ppe1->profiler(), marvel::kPhasePreprocess) /
                   phase_ns(lap->profiler(), marvel::kPhasePreprocess);
  double pre_desk = phase_ns(ppe1->profiler(), marvel::kPhasePreprocess) /
                    phase_ns(desk->profiler(), marvel::kPhasePreprocess);
  Table slow("PPE slowdowns vs reference machines (Section 5.2)");
  slow.header({"Metric", "Measured", "Paper"});
  slow.row({"kernels vs Laptop", Table::num(slow_lap, 2), "2.5"});
  slow.row({"kernels vs Desktop", Table::num(slow_desk, 2), "3.2"});
  slow.row({"preprocess vs Laptop", Table::num(pre_lap, 2), "1.2"});
  slow.row({"preprocess vs Desktop", Table::num(pre_desk, 2), "1.4"});
  std::printf("%s\n", slow.str().c_str());
  shape_check(slow_desk > slow_lap, "Desktop gap exceeds Laptop gap");
  shape_check(pre_desk < slow_desk,
              "I/O-bound preprocessing suffers less on the PPE");

  // --- one-time overhead share (paper: 60% PPE, ~80% x86, 1 image) ---
  auto one_time_share = [](marvel::ReferenceEngine& e) {
    return e.startup_ns() / (e.startup_ns() + total_ns(e.profiler()));
  };
  Table ot("One-time overhead share of 1-image total (paper: 60% / ~80%)");
  ot.header({"Machine", "Measured[%]", "Paper[%]"});
  ot.row({"PPE", Table::num(100 * one_time_share(*ppe1), 1), "60"});
  ot.row({"Desktop", Table::num(100 * one_time_share(*desk), 1), "~80"});
  ot.row({"Laptop", Table::num(100 * one_time_share(*lap), 1), "~80"});
  std::printf("%s\n", ot.str().c_str());
  shape_check(one_time_share(*desk) > one_time_share(*ppe1),
              "one-time I/O looms larger on the faster machine");
  return shape_exit_code();
}
