// cellcheck — property-based scenario fuzzing for the simulated Cell
// port, with a differential oracle against the reference implementation.
//
//   cellcheck --scenarios 500 --seed 1      # a fuzzing run
//   cellcheck --replay 77305              # one scenario by seed
//   cellcheck --replay-file failure.json    # a minimized repro
//
// Scenario i of a run uses seed SplitMix64(base_seed, i), so any failing
// scenario is reproducible from the run's base seed alone. On failure
// the scenario is greedily shrunk and the minimized spec written as JSON
// (--out, default cellcheck.failure.json). All stdout but the host
// ledger on the closing line (host wall seconds and scenarios per host
// second) is derived from seeds and simulated time only — two identical
// invocations print byte-identical logs up to that ledger.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "check/faults.h"
#include "check/runner.h"
#include "check/scenario.h"
#include "check/shrink.h"
#include "learn/model_store.h"
#include "sim/invariants.h"
#include "sim/observe.h"
#include "support/error.h"

namespace {

using cellport::check::RunConfig;
using cellport::check::RunOutcome;
using cellport::check::ScenarioSpec;

struct Options {
  int scenarios = 100;
  std::uint64_t seed = 1;
  bool have_replay_seed = false;
  std::uint64_t replay_seed = 0;
  std::string replay_file;
  std::string out_path = "cellcheck.failure.json";
  std::string library_path;
  std::size_t shrink_budget = 200;
  bool verbose = false;
  bool fail_fast = true;
  int jobs = 0;  // scenario threads; 0 = hardware_concurrency
};

/// Scenario seeds are decorrelated from the (often tiny) base seed with
/// the SplitMix64 finalizer, the same construction support/rng.h uses.
std::uint64_t scenario_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --scenarios N      number of scenarios to run (default 100)\n"
      "  --seed S           base seed for the run (default 1)\n"
      "  --replay SEED      run exactly one scenario by its seed\n"
      "  --replay-file F    run the scenario spec in JSON file F\n"
      "  --out F            minimized-failure output path\n"
      "                     (default cellcheck.failure.json)\n"
      "  --library F        model library path (default: generated in "
      "/tmp)\n"
      "  --jobs N           scenario threads (default: all host cores);\n"
      "                     results and logs are independent of N\n"
      "  --no-shrink        keep the original failing scenario\n"
      "  --keep-going       run all scenarios even after a failure\n"
      "  --verbose          log every scenario, not just failures\n",
      argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  try {
    *out = std::stoull(s);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw cellport::IoError("cannot open " + path);
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// One-line scenario summary: everything needed to eyeball what ran,
/// derived only from the spec (no clocks, no pointers).
std::string describe(const ScenarioSpec& spec) {
  std::string s = std::string(cellport::check::mode_name(spec.mode)) +
                  " spes=" + std::to_string(spec.num_spes);
  if (spec.mode == cellport::check::Mode::kTaskPool) {
    s += " workers=" + std::to_string(spec.pool_workers);
  }
  if (spec.kernel >= 0) s += " kernel=" + std::to_string(spec.kernel);
  s += " images=" + std::to_string(spec.images.size());
  const auto& images = spec.images;
  for (auto it = images.begin(); it != images.end(); ++it) {
    if (std::find(images.begin(), it, *it) != it) {
      s += " dup";  // an image repeats an earlier one
      break;
    }
  }
  if (spec.fault_kind >= 0) {
    s += std::string(" fault=") +
         cellport::check::fault_kind_name(spec.fault_kind);
  }
  if (spec.sharded) s += " sharded";
  if (spec.feed) s += " feed";
  if (spec.fused) s += " fused";
  if (spec.balanced) s += " balanced";
  if (spec.cache_kb > 0) s += " cache=" + std::to_string(spec.cache_kb) + "k";
  if (spec.replay_twice) s += " replay2";
  if (spec.scaling_probe) s += " scaling";
  if (spec.stream_batch > 0) {
    s += " stream=" + std::to_string(spec.stream_batch);
  }
  if (spec.serve) {
    s += " serve tenants=" + std::to_string(spec.serve_tenants) +
         " budget=" + std::to_string(spec.serve_budget) +
         " sbatch=" + std::to_string(spec.serve_batch);
    if (spec.serve_tight) s += " tight";
  }
  if (spec.guarded) {
    s += " guarded";
    if (spec.sched_fault >= 0) {
      s += std::string(" sched=") +
           cellport::check::sched_fault_name(spec.sched_fault) + "@spe" +
           std::to_string(spec.sched_spe) + "+" +
           std::to_string(spec.sched_at);
    }
  }
  return s;
}

/// Runs, shrinks, and reports one failing scenario; returns the shrunk
/// spec's JSON (also written to opts.out_path).
void report_failure(const ScenarioSpec& spec, const RunOutcome& outcome,
                    const RunConfig& cfg, const Options& opts) {
  std::printf("FAIL seed=%llu property=%s\n",
              static_cast<unsigned long long>(spec.seed),
              outcome.property.c_str());
  std::printf("  %s\n", outcome.message.c_str());
  std::printf("  scenario: %s\n", describe(spec).c_str());

  ScenarioSpec minimized = spec;
  if (opts.shrink_budget > 0) {
    auto still_fails = [&](const ScenarioSpec& candidate) {
      RunOutcome again = cellport::check::run_scenario(candidate, cfg);
      return !again.ok && again.property == outcome.property;
    };
    cellport::check::ShrinkResult shrunk = cellport::check::shrink_scenario(
        spec, still_fails, opts.shrink_budget);
    minimized = shrunk.spec;
    std::printf("  shrink: %zu reductions in %zu runs -> %s\n",
                shrunk.accepted, shrunk.evaluations,
                describe(minimized).c_str());
  }
  std::string json = cellport::check::spec_to_json(minimized);
  cellport::sim::ObserveGuard::write_text_file(opts.out_path, json + "\n");
  std::printf("  minimized scenario written to %s\n",
              opts.out_path.c_str());
  std::printf("  replay: cellcheck --replay-file %s\n",
              opts.out_path.c_str());
}

int run(const Options& opts) {
  const auto host_t0 = std::chrono::steady_clock::now();
  RunConfig cfg;
  cfg.library_path = opts.library_path;
  if (cfg.library_path.empty()) {
    // A reduced library (2 extra inactive concepts instead of 34) keeps
    // per-scenario model-load cost small without changing the active
    // model set the oracle compares against.
    cfg.library_path = "/tmp/cellcheck_models.bin";
    cellport::learn::save_library(cfg.library_path,
                                  cellport::learn::make_marvel_models(),
                                  /*extra_concepts_per_feature=*/2);
  }

  std::vector<ScenarioSpec> specs;
  if (!opts.replay_file.empty()) {
    specs.push_back(
        cellport::check::spec_from_json(read_file(opts.replay_file)));
    std::printf("[cellcheck] replaying %s\n", opts.replay_file.c_str());
  } else if (opts.have_replay_seed) {
    specs.push_back(cellport::check::generate_scenario(opts.replay_seed));
    std::printf("[cellcheck] replaying seed %llu\n",
                static_cast<unsigned long long>(opts.replay_seed));
  } else {
    std::printf("[cellcheck] %d scenarios, base seed %llu\n",
                opts.scenarios, static_cast<unsigned long long>(opts.seed));
    for (int i = 0; i < opts.scenarios; ++i) {
      specs.push_back(cellport::check::generate_scenario(
          scenario_seed(opts.seed, static_cast<std::uint64_t>(i))));
    }
  }

  // Run phase: scenarios are independent (each builds its own simulated
  // machine, and the sim keeps per-thread trace/invariant state), so
  // they fan out over host threads. Outcomes are collected by index and
  // reported in order below, which keeps stdout — and, under
  // --fail-fast, the *first* failing scenario — byte-identical to a
  // serial run: a worker that sees a failure at index i only skips
  // indices beyond i, never one that could become the earlier failure.
  int jobs = opts.jobs > 0
                 ? opts.jobs
                 : static_cast<int>(std::thread::hardware_concurrency());
  jobs = std::max(1, std::min(jobs, static_cast<int>(specs.size())));
  std::vector<RunOutcome> outcomes(specs.size());
  std::vector<char> ran(specs.size(), 0);
  if (jobs == 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      outcomes[i] = cellport::check::run_scenario(specs[i], cfg);
      ran[i] = 1;
      if (!outcomes[i].ok && opts.fail_fast) break;
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> first_fail{specs.size()};
    auto worker = [&]() {
      cellport::sim::InvariantChannel channel;
      cellport::sim::ScopedInvariantChannel scope(&channel);
      for (;;) {
        std::size_t i = next.fetch_add(1);
        if (i >= specs.size()) return;
        if (opts.fail_fast && i > first_fail.load()) continue;
        outcomes[i] = cellport::check::run_scenario(specs[i], cfg);
        ran[i] = 1;
        if (!outcomes[i].ok) {
          std::size_t cur = first_fail.load();
          while (i < cur && !first_fail.compare_exchange_weak(cur, i)) {
          }
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  // Report phase (serial, in index order; shrinking re-runs scenarios on
  // this thread).
  int failures = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!ran[i]) continue;
    const ScenarioSpec& spec = specs[i];
    const RunOutcome& outcome = outcomes[i];
    if (opts.verbose && outcome.ok) {
      std::printf("ok seed=%llu %s\n",
                  static_cast<unsigned long long>(spec.seed),
                  describe(spec).c_str());
    }
    if (!outcome.ok) {
      ++failures;
      report_failure(spec, outcome, cfg, opts);
      if (opts.fail_fast) break;
    }
  }
  const double host_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - host_t0)
                            .count();
  const double rate = host_s > 0 ? specs.size() / host_s : 0.0;
  if (failures == 0) {
    std::printf("[cellcheck] all %zu scenario(s) passed (%.1f host s, %.1f "
                "scenarios/s)\n", specs.size(), host_s, rate);
    return 0;
  }
  std::printf("[cellcheck] %d failing scenario(s) (%.1f host s, %.1f "
              "scenarios/s)\n", failures, host_s, rate);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(arg, "--scenarios") == 0 && (v = next()) != nullptr) {
      opts.scenarios = std::atoi(v);
      if (opts.scenarios <= 0) return usage(argv[0]);
    } else if (std::strcmp(arg, "--seed") == 0 && (v = next()) != nullptr) {
      if (!parse_u64(v, &opts.seed)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--replay") == 0 &&
               (v = next()) != nullptr) {
      if (!parse_u64(v, &opts.replay_seed)) return usage(argv[0]);
      opts.have_replay_seed = true;
    } else if (std::strcmp(arg, "--replay-file") == 0 &&
               (v = next()) != nullptr) {
      opts.replay_file = v;
    } else if (std::strcmp(arg, "--out") == 0 && (v = next()) != nullptr) {
      opts.out_path = v;
    } else if (std::strcmp(arg, "--library") == 0 &&
               (v = next()) != nullptr) {
      opts.library_path = v;
    } else if (std::strcmp(arg, "--jobs") == 0 && (v = next()) != nullptr) {
      opts.jobs = std::atoi(v);
      if (opts.jobs <= 0) return usage(argv[0]);
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      opts.shrink_budget = 0;
    } else if (std::strcmp(arg, "--keep-going") == 0) {
      opts.fail_fast = false;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      opts.verbose = true;
    } else {
      return usage(argv[0]);
    }
  }
  try {
    return run(opts);
  } catch (const cellport::Error& e) {
    std::fprintf(stderr, "[cellcheck] fatal: %s\n", e.what());
    return 2;
  }
}
