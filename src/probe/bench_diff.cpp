#include "probe/bench_diff.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "support/error.h"
#include "support/json.h"
#include "support/table.h"

namespace cellport::probe {

namespace {

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const char* suffix) {
  std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw cellport::Error("bench_diff: cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const JsonValue* require(const JsonValue& doc, const char* key,
                         const char* which) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) {
    throw cellport::Error(std::string("bench_diff: ") + which +
                          " artifact has no '" + key + "'");
  }
  return v;
}

}  // namespace

Direction metric_direction(const std::string& name) {
  // Explicit cases first — they would otherwise fall into the
  // informational catch-alls below ("steal.task_count", "cache.hits"
  // contains no keyword, "pipe.slack_share" matches "share").
  if (contains(name, "steal.") || contains(name, "cache.hits")) {
    return Direction::kHigherIsBetter;
  }
  if (contains(name, "cache.evictions") ||
      contains(name, "pipe.slack_share")) {
    return Direction::kLowerIsBetter;
  }
  // Shares/counts/plans describe shape, not cost; never gate them.
  if (contains(name, "share") || contains(name, "count") ||
      contains(name, "plan") || contains(name, "uncovered")) {
    return Direction::kInformational;
  }
  if (ends_with(name, "_ns") || contains(name, "_ns.") ||
      contains(name, "_ns_") || contains(name, "latency") ||
      contains(name, "stall") || contains(name, "slack")) {
    return Direction::kLowerIsBetter;
  }
  if (contains(name, "per_sec") || contains(name, "speedup") ||
      contains(name, "throughput")) {
    return Direction::kHigherIsBetter;
  }
  return Direction::kInformational;
}

bool DiffReport::ok() const {
  return problems.empty() && regressions() == 0;
}

std::size_t DiffReport::regressions() const {
  std::size_t n = 0;
  for (const auto& line : lines) n += line.regressed ? 1 : 0;
  return n;
}

std::string DiffReport::format_text() const {
  std::ostringstream os;
  Table t("bench_diff (gate: >" +
          Table::num(100.0 * threshold, 0) + "% against the better "
          "direction)");
  t.header({"Metric", "Baseline", "Fresh", "Delta[%]", "Verdict"});
  for (const auto& line : lines) {
    const char* verdict =
        line.regressed ? "REGRESSED"
        : line.dir == Direction::kInformational ? "info"
                                                : "ok";
    t.row({line.name, Table::num(line.base, 3), Table::num(line.fresh, 3),
           Table::num(100.0 * line.delta, 2), verdict});
  }
  os << t.str();
  for (const auto& p : problems) os << "  PROBLEM: " << p << "\n";
  os << (ok() ? "  bench_diff: OK\n"
              : "  bench_diff: REGRESSION (" +
                    std::to_string(regressions()) + " metric(s), " +
                    std::to_string(problems.size()) + " problem(s))\n");
  return os.str();
}

DiffReport diff_artifacts(const std::string& baseline_json,
                          const std::string& fresh_json,
                          double threshold) {
  DiffReport report;
  report.threshold = threshold;
  JsonValue base = json_parse(baseline_json);
  JsonValue fresh = json_parse(fresh_json);

  const JsonValue* base_name = require(base, "bench", "baseline");
  const JsonValue* fresh_name = require(fresh, "bench", "fresh");
  if (base_name->string != fresh_name->string) {
    report.problems.push_back("bench name mismatch: baseline '" +
                              base_name->string + "' vs fresh '" +
                              fresh_name->string + "'");
  }

  auto compare = [&](const std::string& name, double b, double f) {
    DiffLine line;
    line.name = name;
    line.base = b;
    line.fresh = f;
    line.delta = b != 0 ? (f - b) / b : 0;
    line.dir = metric_direction(name);
    if (line.dir == Direction::kLowerIsBetter) {
      line.regressed = line.delta > threshold;
    } else if (line.dir == Direction::kHigherIsBetter) {
      line.regressed = line.delta < -threshold;
    }
    report.lines.push_back(std::move(line));
  };

  // Rows: every numeric key of every baseline row must exist in the
  // fresh run and stay within threshold in its gated direction.
  const JsonValue* base_rows = require(base, "rows", "baseline");
  const JsonValue* fresh_rows = require(fresh, "rows", "fresh");
  for (const JsonValue& row : base_rows->array) {
    const JsonValue* label = row.find("label");
    if (label == nullptr) continue;
    const JsonValue* match = nullptr;
    for (const JsonValue& fr : fresh_rows->array) {
      const JsonValue* fl = fr.find("label");
      if (fl != nullptr && fl->string == label->string) {
        match = &fr;
        break;
      }
    }
    if (match == nullptr) {
      report.problems.push_back("row '" + label->string +
                                "' missing from fresh run");
      continue;
    }
    for (const auto& [key, value] : row.object) {
      if (!value.is_number()) continue;
      const JsonValue* fv = match->find(key);
      if (fv == nullptr || !fv->is_number()) {
        report.problems.push_back("row '" + label->string + "' key '" +
                                  key + "' missing from fresh run");
        continue;
      }
      compare(label->string + "." + key, value.number, fv->number);
    }
  }

  // Metrics bag: informational deltas unless the name carries an
  // unambiguous direction (e.g. stream.images_per_sec, *.stall_ns).
  const JsonValue* base_metrics = base.find("metrics");
  const JsonValue* fresh_metrics = fresh.find("metrics");
  if (base_metrics != nullptr) {
    for (const auto& [key, value] : base_metrics->object) {
      if (!value.is_number()) continue;
      const JsonValue* fv =
          fresh_metrics != nullptr ? fresh_metrics->find(key) : nullptr;
      if (fv == nullptr || !fv->is_number()) {
        report.problems.push_back("metric '" + key +
                                  "' missing from fresh run");
        continue;
      }
      if (metric_direction(key) == Direction::kInformational) continue;
      compare("metrics." + key, value.number, fv->number);
    }
  }

  // Shape checks: a claim that held in the baseline must keep holding.
  const JsonValue* base_shapes = base.find("shape_checks");
  const JsonValue* fresh_shapes = fresh.find("shape_checks");
  if (base_shapes != nullptr) {
    for (const JsonValue& s : base_shapes->array) {
      const JsonValue* what = s.find("what");
      const JsonValue* ok = s.find("ok");
      if (what == nullptr || ok == nullptr || !ok->boolean) continue;
      const JsonValue* match = nullptr;
      if (fresh_shapes != nullptr) {
        for (const JsonValue& fs : fresh_shapes->array) {
          const JsonValue* fw = fs.find("what");
          if (fw != nullptr && fw->string == what->string) {
            match = &fs;
            break;
          }
        }
      }
      if (match == nullptr) {
        report.problems.push_back("shape check missing from fresh run: " +
                                  what->string);
      } else if (!match->find("ok")->boolean) {
        report.problems.push_back("shape check regressed: " +
                                  what->string);
      }
    }
  }
  return report;
}

DiffReport diff_artifact_files(const std::string& baseline_path,
                               const std::string& fresh_path,
                               double threshold) {
  return diff_artifacts(read_file(baseline_path), read_file(fresh_path),
                        threshold);
}

}  // namespace cellport::probe
