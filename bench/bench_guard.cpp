// cellguard overhead and recovery characteristics.
//
// The guard's design goal is a free fault-free path: a guarded engine
// run must be bit-identical to an unguarded one and cost no extra
// simulated time (the shape check demands a ratio of exactly 1.0:
// guarded and plain lanes share every call site). This bench measures
// that across all three scheduling scenarios, then quantifies what
// recovery actually costs when an SPE genuinely breaks:
//
//   1. fault-free: guarded vs unguarded, per scenario — identical
//      results, overhead ratio;
//   2. persistent SPE failure with spares: retries migrate the kernel,
//      the run completes undegraded;
//   3. persistent SPE failure with every SPE pinned: the engine falls
//      back to the PPE scalar path for that kernel and reports it.
#include <cstdio>
#include <string>
#include <vector>

#include "guard/policy.h"
#include "harness.h"

using namespace cellport;
using namespace cellport::bench;

namespace {

constexpr sim::SimTime kDeadlineNs = 500e6;  // the cellcheck guard deadline

guard::GuardPolicy guarded_policy() {
  guard::GuardPolicy gp;
  gp.enabled = true;
  gp.retry.deadline_ns = kDeadlineNs;
  return gp;
}

bool identical(const marvel::AnalysisResult& a,
               const marvel::AnalysisResult& b) {
  return a.color_histogram.values == b.color_histogram.values &&
         a.color_correlogram.values == b.color_correlogram.values &&
         a.texture.values == b.texture.values &&
         a.edge_histogram.values == b.edge_histogram.values &&
         a.ch_detect.values == b.ch_detect.values &&
         a.cc_detect.values == b.cc_detect.values &&
         a.tx_detect.values == b.tx_detect.values &&
         a.eh_detect.values == b.eh_detect.values;
}

struct Measured {
  std::unique_ptr<sim::Machine> machine;
  std::vector<marvel::AnalysisResult> results;
  double analyze_ns = 0;
  std::size_t degraded = 0;
};

Measured run(const marvel::Dataset& data, marvel::Scenario scenario,
             guard::GuardPolicy gp, int num_spes = 8,
             const sim::FaultInjection* inject = nullptr,
             int inject_spe = -1) {
  Measured m;
  sim::Machine::Config cfg;
  cfg.num_spes = num_spes;
  m.machine = std::make_unique<sim::Machine>(cfg);
  marvel::CellEngine engine(*m.machine, library_path(), scenario,
                            kernels::kDoubleBuffer, false, gp);
  if (inject != nullptr) m.machine->spe(inject_spe).inject_fault(*inject);
  double t0 = m.machine->ppe().now_ns();
  for (const auto& image : data.images) {
    m.results.push_back(engine.analyze(image));
    m.degraded += m.results.back().degraded.size();
  }
  m.analyze_ns = m.machine->ppe().now_ns() - t0;
  return m;
}

const char* scenario_label(marvel::Scenario s) {
  switch (s) {
    case marvel::Scenario::kSingleSPE: return "single";
    case marvel::Scenario::kMultiSPE: return "multi";
    case marvel::Scenario::kMultiSPE2: return "multi2";
    case marvel::Scenario::kSharded: return "sharded";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = parse_options(argc, argv);
  Observability observe(opts);
  BenchArtifact artifact("guard");

  marvel::Dataset data = marvel::make_dataset(4, 2007);
  bool all_ok = true;

  std::printf("== fault-free overhead (guarded vs unguarded) ==\n");
  for (marvel::Scenario s :
       {marvel::Scenario::kSingleSPE, marvel::Scenario::kMultiSPE,
        marvel::Scenario::kMultiSPE2}) {
    Measured plain = run(data, s, guard::GuardPolicy{});
    Measured guarded = run(data, s, guarded_policy());
    double ratio = guarded.analyze_ns / plain.analyze_ns;
    std::printf("  %-7s unguarded %.3f ms  guarded %.3f ms  ratio %.4f\n",
                scenario_label(s), plain.analyze_ns / 1e6,
                guarded.analyze_ns / 1e6, ratio);
    bool same = plain.results.size() == guarded.results.size();
    for (std::size_t i = 0; same && i < plain.results.size(); ++i) {
      same = identical(plain.results[i], guarded.results[i]);
    }
    all_ok &= artifact.shape(
        same, std::string("fault-free guarded results bit-identical (") +
                  scenario_label(s) + ")");
    all_ok &= artifact.shape(
        ratio == 1.0 && guarded.degraded == 0,
        std::string("fault-free guard overhead is zero (") +
            scenario_label(s) + ")");
    artifact.add_row(std::string("fault_free_") + scenario_label(s),
                     {{"unguarded_ns", plain.analyze_ns},
                      {"guarded_ns", guarded.analyze_ns},
                      {"overhead_ratio", ratio}});
    artifact.set_metric(
        std::string("overhead_ratio.") + scenario_label(s), ratio);
  }

  // A genuinely broken SPE (sticky hang a restart cannot clear) under
  // the kernel that SPE hosts. With spares, recovery = deadline misses +
  // backoff + migration; the results stay exact.
  std::printf("== persistent SPE failure, spares available ==\n");
  sim::FaultInjection broken;
  broken.hang_after = 0;
  broken.hang_sticky = true;
  broken.clears_on_restart = false;

  Measured baseline = run(data, marvel::Scenario::kSingleSPE,
                          guarded_policy());
  Measured migrated = run(data, marvel::Scenario::kSingleSPE,
                          guarded_policy(), 8, &broken, 2);
  double recovery_ns = migrated.analyze_ns - baseline.analyze_ns;
  std::printf("  healthy %.3f ms  broken-spe2 %.3f ms  recovery cost "
              "%.3f ms\n",
              baseline.analyze_ns / 1e6, migrated.analyze_ns / 1e6,
              recovery_ns / 1e6);
  bool exact = true;
  for (std::size_t i = 0; i < baseline.results.size(); ++i) {
    exact &= identical(baseline.results[i], migrated.results[i]);
  }
  all_ok &= artifact.shape(exact && migrated.degraded == 0,
                           "spare SPE absorbs a persistent fault with "
                           "exact results");
  all_ok &= artifact.shape(recovery_ns > 0,
                           "recovery (deadline + backoff + migration) "
                           "costs simulated time");
  artifact.add_row("broken_spe_with_spares",
                   {{"healthy_ns", baseline.analyze_ns},
                    {"broken_ns", migrated.analyze_ns},
                    {"recovery_ns", recovery_ns}});
  artifact.add_machine_metrics(migrated.machine->metrics(), "migrated.");

  // Same failure with every SPE pinned (5-SPE machine): nothing to
  // migrate to, so the texture kernel degrades to the PPE scalar path.
  std::printf("== persistent SPE failure, no spares (PPE fallback) ==\n");
  Measured degraded = run(data, marvel::Scenario::kSingleSPE,
                          guarded_policy(), 5, &broken, 2);
  std::printf("  degraded run %.3f ms, %zu kernel degradations over %zu "
              "images\n",
              degraded.analyze_ns / 1e6, degraded.degraded,
              data.images.size());
  all_ok &= artifact.shape(degraded.degraded == data.images.size(),
                           "pinned-SPE failure degrades exactly the "
                           "texture kernel per image");
  artifact.add_row("broken_spe_no_spares",
                   {{"degraded_ns", degraded.analyze_ns},
                    {"ppe_fallbacks",
                     static_cast<double>(degraded.degraded)}});
  artifact.add_machine_metrics(degraded.machine->metrics(), "degraded.");
  std::printf("%s", sim::format_report(
                        sim::snapshot(*degraded.machine)).c_str());

  artifact.write();
  return all_ok ? 0 : 1;
}
