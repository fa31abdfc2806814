// cellbench: one seeded benchmark for both clocks of the simulator.
//
// Every metric names its clock. `sim_*` metrics read the modelled Cell's
// simulated time: they are a pure function of the inputs and compare
// exactly between runs of one seed. `host_*` metrics read the host
// machine's clocks: they measure what the simulator costs to run and are
// noisy. README.md in this directory lists every metric, the workloads
// and why each exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "img/codec.h"
#include "marvel/cell_engine.h"
#include "probe/attribution.h"
#include "serve/request.h"

namespace cellbench {

// ---- host clocks -----------------------------------------------------------

/// Monotonic wall-clock seconds.
double wall_s();
/// Process user+sys CPU seconds (all threads, including SPE threads).
double cpu_s();

double median(std::vector<double> xs);
double pct(const std::vector<double>& xs, double p);

// ---- metrics ---------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ---- host spans (traced run only) ------------------------------------------

/// In-memory span log: spans are recorded by the benchmark around its
/// calls into each layer and written out once, when the run ends.
class SpanLog {
 public:
  /// Opens a span; `parent` is a span index or -1, `request` a request id
  /// or -1 for spans that serve no single request.
  int open(std::string name, int parent = -1, long request = -1);
  void close(int idx);
  void write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    long request = -1;
  };
  std::vector<Span> spans_;
};

/// RAII span; inert when `log` is null.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, int parent = -1, long request = -1)
      : log_(log),
        idx_(log ? log->open(std::move(name), parent, request) : -1) {}
  ~Scope() {
    if (log_) log_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int idx() const { return idx_; }

 private:
  SpanLog* log_;
  int idx_;
};

// ---- workloads -------------------------------------------------------------

enum class Workload { kStream, kPercall, kServe };

/// One serve request's generated shape: which carrier, which tenant, which
/// class, and when it is due, in cold service times after the pass starts.
struct ServeSlot {
  std::size_t image = 0;
  int tenant = 0;
  cellport::serve::Priority priority = cellport::serve::Priority::kNormal;
  double due_services = 0;
};

/// Everything a run feeds the program, generated from the seed before any
/// timing starts.
struct Inputs {
  Workload workload = Workload::kStream;
  std::uint64_t seed = 0;
  std::vector<cellport::img::SicEncoded> images;
  std::vector<ServeSlot> serve;
};

Inputs make_inputs(Workload w, std::uint64_t seed);

/// The workload's engine: kSharded on an 8-SPE machine; stream and serve
/// add SPE ingest and the fused kernel, serve adds the content cache.
std::unique_ptr<cellport::marvel::CellEngine> make_engine(
    cellport::sim::Machine& machine, const std::string& library, Workload w);

/// What one pass of a workload measured. A pass runs the whole generated
/// input on a freshly constructed machine and engine, so every pass of a
/// seed charges identical simulated time.
struct PassOut {
  double host_s = 0;  // wall time of the workload calls
  double cpu_s = 0;   // process CPU time of the same calls
  std::size_t attempted = 0;
  std::size_t served = 0;  // results delivered (serve: ok + degraded)
  std::size_t degraded = 0;
  std::size_t refused = 0;  // serve: shed, rejected or deadline missed
  cellport::serve::ServeStats serve_stats;  // serve only
  double sim_elapsed_ns = 0;
  /// Peak resident memory the pass added (machine, engine and the
  /// workload calls) over the resident size, freed heap trimmed, before
  /// it started. Inputs are made before the pass and not counted.
  double peak_rss_mb = 0;
  std::vector<double> host_latency_ms;
  std::vector<double> sim_latency_ms;
  std::vector<double> sim_latency_high_ms;
  std::vector<cellport::marvel::AnalysisResult> results;  // input order
  std::vector<bool> has_result;
  std::vector<std::uint64_t> result_hash;  // canonical-form digest per request
  /// Per-layer views of the pass (filled when PassConfig::collect is
  /// set): sim.* and balance.* of the machine, serve.* of the broker.
  Metrics layers;
};

struct PassConfig {
  cellport::probe::ProbeSink* probe = nullptr;
  SpanLog* spans = nullptr;
  bool collect = false;  // fill PassOut::layers
  bool rss = false;      // fill PassOut::peak_rss_mb
};

/// Simulated ns per image of the cold (cache-less) service the serve
/// workload's arrival rate is derived from.
double calibrate_serve(const Inputs& in, const std::string& library);

/// `service_ns` is calibrate_serve()'s result (unused by other workloads).
PassOut run_pass(const Inputs& in, const std::string& library,
                 double service_ns, const PassConfig& cfg);

/// Host time of the broker's run() over the serve pass's requests, all
/// admitted at once and served at full fidelity, relative to a direct
/// analyze_stream of the same queue, minus 1 (serve.overhead_host_share).
double serve_overhead_share(const Inputs& in, const std::string& library,
                            double service_ns);

// ---- layers ----------------------------------------------------------------

/// The workload-independent layer probes: SPU intrinsics, single kernels,
/// the mailbox and ring protocols, decode, reduce and digest.
Metrics layer_probes(const Inputs& in, const std::string& library,
                     SpanLog* spans);

}  // namespace cellbench
