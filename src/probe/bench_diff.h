// cellprobe: direction-aware diffing of BENCH_*.json artifacts.
//
// Every bench writes the same artifact shape (BenchArtifact in
// bench/harness.h): rows of named numeric values, a metrics bag, and
// recorded shape checks. bench_diff compares two such documents and is
// the single CI regression gate: row values gate at a relative
// threshold with the direction inferred from the metric name (latency
// "_ns" keys are lower-is-better, "per_sec"/"speedup" keys are
// higher-is-better, everything else is informational), a shape check
// that held in the baseline but fails in the fresh run is a regression,
// and a row, key or metric missing from the fresh run is a failure.
// Simulated time is deterministic, so the default 5% threshold is
// generous — any trip is a real model change, not noise.
#pragma once

#include <string>
#include <vector>

namespace cellport::probe {

enum class Direction {
  kLowerIsBetter,   // gate on rises beyond the threshold
  kHigherIsBetter,  // gate on drops beyond the threshold
  kInformational,   // reported, never gated
};

/// Infers the gating direction from a metric name.
Direction metric_direction(const std::string& name);

struct DiffLine {
  std::string name;  // "<row label>.<key>" or "metrics.<key>"
  double base = 0;
  double fresh = 0;
  /// (fresh - base) / base; 0 when base == 0.
  double delta = 0;
  Direction dir = Direction::kInformational;
  bool regressed = false;
};

struct DiffReport {
  std::vector<DiffLine> lines;
  /// Structural failures: missing rows/keys/metrics, flipped shape checks,
  /// mismatched bench names.
  std::vector<std::string> problems;
  double threshold = 0;
  bool ok() const;
  std::size_t regressions() const;
  std::string format_text() const;
};

/// Diffs two artifact documents (JSON text). Throws cellport::Error on
/// unparseable input.
DiffReport diff_artifacts(const std::string& baseline_json,
                          const std::string& fresh_json,
                          double threshold = 0.05);

/// diff_artifacts over files.
DiffReport diff_artifact_files(const std::string& baseline_path,
                               const std::string& fresh_path,
                               double threshold = 0.05);

}  // namespace cellport::probe
