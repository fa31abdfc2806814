// bench_diff: the one CI regression gate.
//
// Compares two BENCH_*.json artifacts (a committed baseline and a fresh
// run) with direction-aware thresholds: *_ns and latency-like metrics
// must not rise, *_per_sec/speedup metrics must not fall, shares and
// counts are informational. Baseline shape checks must keep holding.
//
//   bench_diff <baseline.json> <fresh.json> [--threshold=0.05]
//
// --threshold=0 fails any worsening of a gated metric, however small.
// Exit 0 when everything is within threshold, 1 on any regression or
// structural problem, 2 on usage/parse errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "probe/bench_diff.h"

int main(int argc, char** argv) {
  std::string baseline;
  std::string fresh;
  double threshold = 0.05;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threshold=", 12) == 0) {
      threshold = std::atof(arg + 12);
    } else if (baseline.empty()) {
      baseline = arg;
    } else if (fresh.empty()) {
      fresh = arg;
    } else {
      std::fprintf(stderr, "bench_diff: unexpected argument '%s'\n", arg);
      return 2;
    }
  }
  if (baseline.empty() || fresh.empty() || threshold < 0 ||
      threshold >= 1) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <fresh.json> "
                 "[--threshold=0.05]\n");
    return 2;
  }
  try {
    cellport::probe::DiffReport report =
        cellport::probe::diff_artifact_files(baseline, fresh, threshold);
    std::fputs(report.format_text().c_str(), stdout);
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
