// cellbench: runs one seeded workload and prints its metrics.
//
//   cellbench --workload stream|percall|serve --seed N --seconds S
//             --trace 0|1 --out DIR
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the traced
// variant and prints every per-layer metric. DIR receives the model
// library and, for traced runs, the span log. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every checked output was correct.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>

#include "balance/digest.h"
#include "cellbench.h"
#include "check/oracle.h"
#include "learn/model_store.h"
#include "marvel/cell_engine.h"
#include "marvel/reference_engine.h"
#include "probe/attribution.h"
#include "sim/core_model.h"
#include "sim/machine.h"
#include "support/json.h"

using namespace cellport;
using namespace cellbench;

namespace {

// Set-ups timed before the first pass and after each later one.
constexpr int kSetupsFirst = 9;
constexpr int kSetupsPerPass = 3;
constexpr std::size_t kReferenceSample = 16;

struct Options {
  Workload workload = Workload::kStream;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cellbench: %s\nusage: cellbench --workload stream|percall|"
               "serve --seed N --seconds S --trace 0|1 --out DIR\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have[5] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload_name = v;
      if (v == "stream") o.workload = Workload::kStream;
      else if (v == "percall") o.workload = Workload::kPercall;
      else if (v == "serve") o.workload = Workload::kServe;
      else usage("unknown workload");
      have[0] = true;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed");
      have[1] = true;
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0)) usage("bad --seconds");
      have[2] = true;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      o.trace = v == "1";
      have[3] = true;
    } else if (k == "--out") {
      o.out = v;
      have[4] = true;
    } else {
      usage("unknown option");
    }
  }
  for (bool h : have) {
    if (!h) usage("missing option");
  }
  return o;
}

/// Set-up: the model-library build plus Machine and engine construction.
/// Host speed drifts over seconds on a shared machine, so samples are
/// taken in groups spread over the whole run, between passes, and the
/// medians are reported.
class Setup {
 public:
  explicit Setup(const Options& o)
      : workload_(o.workload),
        library_(o.out + "/models." + o.workload_name + ".bin") {}

  /// Times `n` more set-ups; each rewrites the model library.
  void sample(int n) {
    for (int r = 0; r < n; ++r) {
      const double t0 = wall_s();
      learn::save_library(library_, learn::make_marvel_models());
      const double t1 = wall_s();
      {
        sim::Machine machine;
        auto engine = make_engine(machine, library_, workload_);
        engine_.push_back(wall_s() - t1);
      }
      library_build_.push_back(t1 - t0);
      total_.push_back(library_build_.back() + engine_.back());
    }
  }
  const std::string& library() const { return library_; }
  double library_build_s() const { return median(library_build_); }
  double engine_init_s() const { return median(engine_); }
  double setup_s() const { return median(total_); }
  std::size_t samples() const { return total_.size(); }

 private:
  Workload workload_;
  std::string library_;
  std::vector<double> library_build_, engine_, total_;
};

/// The reference engine's result cut to the concept prefix a degraded
/// serve response evaluated (the ladder's bit-exact-prefix contract).
marvel::AnalysisResult prefix_of(marvel::AnalysisResult ref,
                                 const marvel::AnalysisResult& cell) {
  auto cut = [](marvel::DetectionScores& r, const marvel::DetectionScores& c) {
    if (!c.values.empty() && c.values.size() < r.values.size()) {
      r.values.resize(c.values.size());
    }
  };
  cut(ref.ch_detect, cell.ch_detect);
  cut(ref.cc_detect, cell.cc_detect);
  cut(ref.tx_detect, cell.tx_detect);
  cut(ref.eh_detect, cell.eh_detect);
  return ref;
}

/// Compares a seeded sample of the pass's delivered results against the
/// reference engine on the Cell PPE model. Returns per-request failure
/// flags (true = mismatch).
std::vector<bool> reference_check(const Inputs& in, const PassOut& pass,
                                  const std::string& library) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    if (pass.has_result[i]) candidates.push_back(i);
  }
  std::vector<bool> bad(pass.results.size(), false);
  // A seeded stride walk picks the sample without repeats.
  const std::size_t n = candidates.size();
  const std::size_t k = std::min(kReferenceSample, n);
  const std::size_t stride = n > 1 ? 1 + (in.seed % (n - 1)) : 1;
  std::size_t step = stride;
  while (n > 1 && std::gcd(step, n) != 1) ++step;
  marvel::ReferenceEngine ref(sim::cell_ppe(), library);
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t i = candidates[(in.seed + j * step) % n];
    const img::SicEncoded& image = in.workload == Workload::kServe
                                       ? in.images[in.serve[i].image]
                                       : in.images[i];
    const marvel::AnalysisResult& cell = pass.results[i];
    const std::string diff =
        check::compare_results(cell, prefix_of(ref.analyze(image), cell));
    if (!diff.empty()) {
      bad[i] = true;
      ++mismatches;
      std::printf("[check] request %zu differs from the reference: %s\n", i,
                  diff.c_str());
    }
  }
  std::printf("[check] reference sample: %zu of %zu delivered results, "
              "%zu mismatches\n",
              k, n, mismatches);
  return bad;
}

bool same_sim(const PassOut& a, const PassOut& b) {
  return a.sim_elapsed_ns == b.sim_elapsed_ns &&
         a.sim_latency_ms == b.sim_latency_ms &&
         a.served == b.served && a.degraded == b.degraded &&
         a.refused == b.refused;
}

/// Requests of `p` that failed: refused by the broker, flagged by the
/// reference check, or differing from the warm-up pass's results.
std::size_t failures(const PassOut& p, const PassOut& warm,
                     const std::vector<bool>& bad, std::size_t* drift) {
  std::size_t f = p.refused;
  for (std::size_t i = 0; i < p.result_hash.size(); ++i) {
    if (!p.has_result[i]) continue;
    if (p.result_hash[i] != warm.result_hash[i]) {
      ++f;
      ++*drift;
    } else if (bad[i]) {
      ++f;
    }
  }
  return f;
}

unsigned long long digest_of(const std::string& s) {
  return balance::fnv1a64(reinterpret_cast<const std::uint8_t*>(s.data()),
                          s.size());
}

void emit(bool correct, std::size_t attempted, std::size_t failed,
          const Metrics& metrics) {
  JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(static_cast<double>(attempted));
  w.key("failed").value(static_cast<double>(failed));
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  // A fixed mmap threshold (glibc's default start value, which it would
  // otherwise raise as buffers are freed) keeps large buffers out of the
  // heap, so peak_rss_mb tracks live buffers instead of heap
  // fragmentation; with the dynamic threshold it swung by +-20% from run
  // to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  Setup setup(o);
  setup.sample(kSetupsFirst);
  const Inputs in = make_inputs(o.workload, o.seed);
  std::size_t bytes = 0;
  std::string shape;
  for (const auto& im : in.images) {
    bytes += im.bytes.size();
    shape += std::to_string(
        balance::fnv1a64(im.bytes.data(), im.bytes.size()));
  }
  for (const ServeSlot& s : in.serve) {
    shape += ' ' + std::to_string(s.image) + ',' + std::to_string(s.tenant) +
             ',' + std::to_string(static_cast<int>(s.priority)) + ',' +
             std::to_string(s.due_services);
  }
  std::printf("[inputs] %s seed %llu: %zu carriers, %.1f MB, "
              "digest %016llx\n",
              o.workload_name.c_str(),
              static_cast<unsigned long long>(o.seed), in.images.size(),
              static_cast<double>(bytes) / 1e6, digest_of(shape));
  const double service_ns = o.workload == Workload::kServe
                                ? calibrate_serve(in, setup.library())
                                : 0.0;

  bool correct = true;
  std::size_t attempted = 0, failed = 0, drift = 0;
  PassOut warm;
  try {
    warm = run_pass(in, setup.library(), service_ns, {});
  } catch (const std::exception& e) {
    std::printf("[check] warm-up pass threw: %s\n", e.what());
    emit(false, 1, 1, {});
    return 1;
  }
  if (o.workload == Workload::kServe) {
    const serve::ServeStats& st = warm.serve_stats;
    std::printf("[serve] cold service %.3f ms/image: ok %llu, degraded "
                "%llu, shed %llu, deadline missed %llu, rejected %llu; "
                "%llu cycles, max degrade level %d\n",
                service_ns / 1e6,
                static_cast<unsigned long long>(st.ok),
                static_cast<unsigned long long>(st.degraded),
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.deadline_missed),
                static_cast<unsigned long long>(st.rejected),
                static_cast<unsigned long long>(st.cycles),
                st.max_degrade_level);
  }
  std::string hashes;
  for (std::uint64_t h : warm.result_hash) hashes += std::to_string(h) + ' ';
  std::printf("[results] digest %016llx\n", digest_of(hashes));
  const std::vector<bool> bad = reference_check(in, warm, setup.library());
  for (bool b : bad) correct &= !b;

  // Runs one pass, folding its failures into the run's tallies.
  auto pass = [&](const PassConfig& cfg, PassOut* out) {
    attempted += warm.attempted;
    try {
      *out = run_pass(in, setup.library(), service_ns, cfg);
    } catch (const std::exception& e) {
      std::printf("[check] pass threw: %s\n", e.what());
      failed += warm.attempted;
      correct = false;
      return false;
    }
    setup.sample(kSetupsPerPass);
    failed += failures(*out, warm, bad, &drift);
    if (!same_sim(*out, warm)) {
      std::printf("[check] simulated time differs from the warm-up pass\n");
      correct = false;
    }
    return true;
  };

  Metrics metrics;
  std::vector<double> ips, cpu_ms, host_lat;
  if (!o.trace) {
    std::vector<double> rss;
    const double t0 = wall_s();
    while (ips.empty() || wall_s() - t0 < o.seconds) {
      PassOut p;
      if (!pass({nullptr, nullptr, false, true}, &p)) break;
      rss.push_back(p.peak_rss_mb);
      ips.push_back(static_cast<double>(p.served) / p.host_s);
      cpu_ms.push_back(p.cpu_s * 1e3 / static_cast<double>(p.served));
      host_lat.insert(host_lat.end(), p.host_latency_ms.begin(),
                      p.host_latency_ms.end());
    }
    std::printf("[timing] %zu passes in %.2f s\n", ips.size(),
                wall_s() - t0);
    const double served = static_cast<double>(warm.served);
    metrics["setup_s"] = {setup.setup_s(), "s"};
    metrics["peak_rss_mb"] = {median(rss), "MB"};
    metrics["host_images_per_s"] = {median(ips), "1/s"};
    metrics["host_cpu_ms_per_image"] = {median(cpu_ms), "ms"};
    metrics["host_latency_p50_ms"] = {pct(host_lat, 50), "ms"};
    metrics["host_latency_p95_ms"] = {pct(host_lat, 95), "ms"};
    metrics["sim_images_per_s"] = {served / (warm.sim_elapsed_ns * 1e-9),
                                   "1/s"};
    metrics["sim_latency_p50_ms"] = {pct(warm.sim_latency_ms, 50), "ms"};
    metrics["sim_latency_p95_ms"] = {pct(warm.sim_latency_ms, 95), "ms"};
    metrics["sim_latency_high_p95_ms"] = {pct(warm.sim_latency_high_ms, 95),
                                          "ms"};
    metrics["served_share"] = {
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
        "ratio"};
    metrics["full_fidelity_share"] = {
        1.0 - static_cast<double>(warm.degraded) / served, "ratio"};
  } else {
    SpanLog spans;
    std::vector<double> traced_ips;
    probe::Attribution first_attr;
    PassOut first_traced;
    const double t0 = wall_s();
    while (traced_ips.empty() || wall_s() - t0 < o.seconds) {
      PassOut p;
      if (!pass({}, &p)) break;
      ips.push_back(static_cast<double>(p.served) / p.host_s);
      probe::Attribution attr;
      PassOut t;
      if (!pass({&attr, &spans, true}, &t)) break;
      traced_ips.push_back(static_cast<double>(t.served) / t.host_s);
      if (traced_ips.size() == 1) {
        attr.set_total_elapsed_ns(t.sim_elapsed_ns);
        first_attr = attr;
        first_traced = std::move(t);
      }
    }
    if (traced_ips.empty()) {
      emit(false, attempted ? attempted : 1, failed ? failed : 1, {});
      return 1;
    }
    // The phase shares partition each request exactly, and requests do
    // not overlap, so phases plus the uncovered gaps between requests
    // must sum to the pass's elapsed PPE time.
    const double total = first_attr.total_elapsed_ns();
    const double covered = first_attr.covered_ns();
    if (covered > 1.01 * total ||
        std::fabs(covered - first_attr.request_elapsed_ns()) > 0.01 * total) {
      std::printf("[check] attribution: phases %.6g ns, requests %.6g ns, "
                  "pass %.6g ns (> 1%% off)\n",
                  covered, first_attr.request_elapsed_ns(), total);
      correct = false;
    }
    auto share = [&](probe::Phase ph) {
      auto it = first_attr.phase_ns().find(ph);
      return it == first_attr.phase_ns().end() ? 0.0
                                               : first_attr.share(it->second);
    };
    metrics = first_traced.layers;
    const bool serving = o.workload == Workload::kServe;
    if (!serving) {
      metrics["serve.queue_wait_p95_ms"] = {0, "ms"};
      metrics["serve.max_degrade_level"] = {0, "level"};
      metrics["serve.cycles"] = {0, "count"};
    }
    metrics["serve.overhead_host_share"] = {
        serving ? serve_overhead_share(in, setup.library(), service_ns) : 0.0,
        "ratio"};
    metrics["img.decode_sim_share"] = {share(probe::Phase::kDecode), "ratio"};
    metrics["shard.reduce_sim_share"] = {share(probe::Phase::kReduce),
                                         "ratio"};
    metrics["kernels.feed_dma_sim_share"] = {share(probe::Phase::kFeedDma),
                                             "ratio"};
    metrics["kernels.extract_wait_sim_share"] = {
        share(probe::Phase::kExtract), "ratio"};
    metrics["kernels.detect_wait_sim_share"] = {share(probe::Phase::kDetect),
                                                "ratio"};
    metrics["port.dispatch_sim_share"] = {share(probe::Phase::kDispatch),
                                          "ratio"};
    metrics["marvel.prepare_sim_share"] = {share(probe::Phase::kPrepare),
                                           "ratio"};
    metrics["marvel.output_sim_share"] = {share(probe::Phase::kOutput),
                                          "ratio"};
    metrics["learn.library_build_s"] = {setup.library_build_s(), "s"};
    metrics["marvel.engine_init_s"] = {setup.engine_init_s(), "s"};
    metrics["probe.overhead_host_share"] = {
        1.0 - median(traced_ips) / median(ips), "ratio"};
    for (const auto& [k, v] : layer_probes(in, setup.library(), &spans)) {
      metrics[k] = v;
    }
    const std::string path = o.out + "/spans." + o.workload_name + "." +
                             std::to_string(o.seed) + ".json";
    spans.write(path);
    std::printf("[trace] %zu traced passes, %zu spans -> %s\n",
                traced_ips.size(), spans.size(), path.c_str());
  }
  std::printf("[setup] median of %zu: %.4f s (library %.4f s, engine "
              "%.4f s)\n",
              setup.samples(), setup.setup_s(), setup.library_build_s(),
              setup.engine_init_s());
  if (drift > 0) {
    std::printf("[check] %zu results differ between passes\n", drift);
    correct = false;
  }
  for (const auto& [k, v] : metrics) {
    if (!std::isfinite(v.value)) {
      std::printf("[check] metric %s is not finite\n", k.c_str());
      correct = false;
    }
  }
  std::printf("[check] %s: %zu attempted, %zu failed\n",
              correct ? "correct" : "INCORRECT", attempted, failed);
  emit(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
