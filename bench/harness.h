// Shared plumbing for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper: it runs
// the relevant engines on the standard dataset, prints the measured rows
// next to the paper's published values, and reports whether the *shape*
// claims hold (who wins, orderings, ratios) — absolute numbers are not
// expected to match a 2007 testbed.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "learn/model_store.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "marvel/reference_engine.h"
#include "sim/machine.h"
#include "sim/observe.h"
#include "sim/report.h"
#include "support/error.h"
#include "support/json.h"
#include "support/table.h"
#include "trace/metrics.h"

namespace cellport::bench {

/// Writes the standard model library to a temp path (done once per
/// binary) and returns the path. The path is per-process: concurrent
/// bench binaries (CI runs them in parallel) must not rebuild the
/// library over each other mid-read. The file is removed at normal
/// exit.
inline const std::string& library_path() {
  struct LibraryFile {
    std::string path = "/tmp/cellport_bench_models." +
                       std::to_string(::getpid()) + ".bin";
    LibraryFile() {
      learn::MarvelModels models = learn::make_marvel_models();
      std::size_t bytes = learn::save_library(path, models);
      std::printf("[setup] model library: %.2f MB at %s\n",
                  static_cast<double>(bytes) / 1e6, path.c_str());
    }
    ~LibraryFile() { std::remove(path.c_str()); }
    LibraryFile(const LibraryFile&) = delete;
    LibraryFile& operator=(const LibraryFile&) = delete;
  };
  static const LibraryFile file;
  return file.path;
}

/// Exclusive simulated ns of one profiler phase (0 when absent).
inline double phase_ns(port::Profiler& prof, const std::string& name) {
  for (const auto& rec : prof.report()) {
    if (rec.name == name) return rec.exclusive_ns;
  }
  return 0.0;
}

/// Total per-image simulated ns across all phases except startup.
inline double total_ns(port::Profiler& prof) {
  double t = 0;
  for (const auto& rec : prof.report()) {
    if (rec.name != marvel::kPhaseStartup) t += rec.exclusive_ns;
  }
  return t;
}

/// Runs a reference engine over a dataset; returns the engine (profiler
/// holds the accumulated phase times).
inline std::unique_ptr<marvel::ReferenceEngine> run_reference(
    sim::CoreModel core, const marvel::Dataset& data) {
  auto engine = std::make_unique<marvel::ReferenceEngine>(std::move(core),
                                                          library_path());
  for (const auto& image : data.images) engine->analyze(image);
  return engine;
}

/// Runs a Cell engine over a dataset on a fresh machine. The machine must
/// outlive the engine; both are returned.
struct CellRun {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<marvel::CellEngine> engine;
};

inline CellRun run_cell(const marvel::Dataset& data,
                        marvel::Scenario scenario,
                        kernels::BufferingDepth buffering =
                            kernels::kDoubleBuffer,
                        bool use_naive = false) {
  CellRun run;
  run.machine = std::make_unique<sim::Machine>();
  run.engine = std::make_unique<marvel::CellEngine>(
      *run.machine, library_path(), scenario, buffering, use_naive);
  for (const auto& image : data.images) run.engine->analyze(image);
  return run;
}

/// Number of SHAPE-FAIL lines this process has printed.
inline int& shape_failures() {
  static int failures = 0;
  return failures;
}

/// Prints a shape-check line: PASS/FAIL with the tested relation.
inline bool shape_check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "SHAPE-OK" : "SHAPE-FAIL", what.c_str());
  if (!ok) ++shape_failures();
  return ok;
}

/// A bench's exit status: 1 when any shape check failed, else 0.
inline int shape_exit_code() { return shape_failures() == 0 ? 0 : 1; }

// ---------------------------------------------------------------------------
// cellscope integration: command-line flags, the trace-session guard, and
// the BENCH_<name>.json artifact writer.

/// The shared flag set and session guard live in sim/observe.h so the
/// examples expose the same --trace/--metrics/--timeline surface; the
/// bench names are aliases.
using BenchOptions = sim::ObserveOptions;
using Observability = sim::ObserveGuard;

inline BenchOptions parse_options(int argc, char** argv) {
  return sim::parse_observe_options(argc, argv);
}

/// Machine-readable bench result:
///   {"bench": ..., "rows": [{"label": ..., <name>: <value>, ...}, ...],
///    "metrics": {...}, "shape_checks": [{"ok": ..., "what": ...}, ...]}
/// written to BENCH_<name>.json so experiment drivers don't scrape tables.
class BenchArtifact {
 public:
  explicit BenchArtifact(std::string bench) : bench_(std::move(bench)) {}

  /// One measured row (a table line): a label plus named numeric values.
  void add_row(const std::string& label,
               std::vector<std::pair<std::string, double>> values) {
    rows_.push_back({label, std::move(values)});
  }

  void set_metric(const std::string& name, double v) { metrics_[name] = v; }

  /// Folds a machine's metric series into the artifact: counters and
  /// gauges verbatim, histograms as .count/.mean/.p95 summaries. The
  /// series a machine registers only under --trace are left out, so the
  /// artifact is the same with tracing on or off.
  void add_machine_metrics(const trace::MetricsRegistry& m,
                           const std::string& prefix = "") {
    for (const auto& [name, c] : m.counters()) {
      if (sim::Machine::trace_only_series(name)) continue;
      metrics_[prefix + name] = static_cast<double>(c->value());
    }
    for (const auto& [name, g] : m.gauges()) metrics_[prefix + name] = g->value();
    for (const auto& [name, h] : m.histograms()) {
      if (sim::Machine::trace_only_series(name)) continue;
      metrics_[prefix + name + ".count"] = static_cast<double>(h->count());
      metrics_[prefix + name + ".mean"] = h->mean();
      metrics_[prefix + name + ".p95"] = h->percentile(95);
    }
  }

  /// shape_check() that also records the claim in the artifact.
  bool shape(bool ok, const std::string& what) {
    shape_check(ok, what);
    shapes_.push_back({ok, what});
    return ok;
  }

  /// Serializes to `path`, defaulting to BENCH_<name>.json in the working
  /// directory.
  void write(const std::string& path = "") const {
    std::string p = path.empty() ? "BENCH_" + bench_ + ".json" : path;
    JsonWriter w;
    w.begin_object();
    w.key("bench").value(bench_);
    w.key("rows").begin_array();
    for (const auto& row : rows_) {
      w.begin_object();
      w.key("label").value(row.label);
      for (const auto& [name, v] : row.values) w.key(name).value(v);
      w.end_object();
    }
    w.end_array();
    w.key("metrics").begin_object();
    for (const auto& [name, v] : metrics_) w.key(name).value(v);
    w.end_object();
    w.key("shape_checks").begin_array();
    for (const auto& s : shapes_) {
      w.begin_object();
      w.key("ok").value(s.ok);
      w.key("what").value(s.what);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    Observability::write_text_file(p, w.str());
    std::printf("[cellscope] artifact: %s\n", p.c_str());
  }

 private:
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> values;
  };
  struct Shape {
    bool ok;
    std::string what;
  };
  std::string bench_;
  std::vector<Row> rows_;
  std::map<std::string, double> metrics_;
  std::vector<Shape> shapes_;
};

}  // namespace cellport::bench
