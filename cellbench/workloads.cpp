// The three workloads, their seeded inputs, and one measured pass of each.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>

#include "balance/digest.h"
#include "cellbench.h"
#include "check/oracle.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "serve/broker.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "support/json.h"
#include "support/stats.h"

namespace cellbench {

using namespace cellport;

namespace {

// Pass sizes. Each holds at least ten samples beyond every percentile a
// workload reports: percall's 200 images put 10 beyond the p95, and
// serve's high class (half of 400 requests) puts 10 beyond its p95.
constexpr int kStreamImages = 256;
constexpr int kPercallImages = 200;
constexpr int kServeRequests = 400;
constexpr int kStreamBatch = 16;
constexpr int kServeBatch = 4;
// Serve arrivals come in bursts of 1 to kServeMaxBurst requests, spaced
// so the mean arrival rate is kServeLoad times the cold service rate. The
// large bursts push queue pressure past the degrade ladder's first step
// on some cycles; the gaps drain the queue before anything sheds or
// misses its deadline.
constexpr double kServeLoad = 0.75;
constexpr int kServeMaxBurst = 20;
constexpr int kServeCycleWindows = 3;
constexpr std::size_t kServeBudget = 32;
constexpr double kServeDeadlineServices = 200.0;
constexpr std::size_t kServeCacheBytes = 16u << 20;
constexpr int kCalibrationImages = 32;

/// Reads a "Vm*:  N kB" line of /proc/self/status, in MB.
double vm_mb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(f, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Opens a pass's resident-memory window: drops freed heap back to the OS
/// and resets the peak-RSS mark, so VmHWM later measures only what the
/// pass adds. Returns the resident size at the start, in MB.
double open_rss_window() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return vm_mb("VmRSS");
}

/// Host wall and CPU clocks around a pass's workload calls.
struct Timed {
  Timed() : wall0_(wall_s()), cpu0_(cpu_s()) {}
  void stop(PassOut& out) const {
    out.host_s = wall_s() - wall0_;
    out.cpu_s = cpu_s() - cpu0_;
  }

 private:
  double wall0_, cpu0_;
};

std::uint64_t result_digest(const marvel::AnalysisResult& r, int status,
                            int level) {
  std::string s = check::canonical_result_json(r);
  s += '|' + std::to_string(status) + '|' + std::to_string(level);
  return balance::fnv1a64(reinterpret_cast<const std::uint8_t*>(s.data()),
                          s.size());
}

void collect_machine(sim::Machine& machine, std::size_t images,
                     double pass_sim_ns, Metrics& out) {
  sim::MachineReport r = sim::snapshot(machine);
  const auto& m = machine.metrics();
  double busy = 0, stall = 0, dma_bytes = 0, mbox = 0;
  const sim::SpeReport* busiest = nullptr;
  for (const auto& s : r.spes) {
    busy += static_cast<double>(s.busy_ns);
    stall += static_cast<double>(s.dma_stall_ns);
    dma_bytes += static_cast<double>(s.dma_bytes);
    if (busiest == nullptr || s.busy_ns > busiest->busy_ns) busiest = &s;
    const trace::Gauge* g =
        m.find_gauge("spe" + std::to_string(s.id) + ".mbox.in_writes");
    if (g != nullptr) mbox += g->value();
  }
  const double n = static_cast<double>(images);
  const double spes = static_cast<double>(r.spes.size());
  out["sim.spe_busy_share"] = {busy / (spes * pass_sim_ns), "ratio"};
  const double issued = busiest->even_cycles + busiest->odd_cycles;
  out["sim.pipe_slack_share"] = {
      issued > 0 ? busiest->slack_cycles / issued : 0.0, "ratio"};
  out["sim.dma_stall_share"] = {busy > 0 ? stall / busy : 0.0, "ratio"};
  out["sim.dma_bytes_per_image"] = {dma_bytes / n, "B"};
  out["sim.eib_utilization"] = {r.eib_utilization, "ratio"};
  out["sim.mbox_writes_per_image"] = {mbox / n, "count"};
  const trace::Counter* hits = m.find_counter("cache.hits");
  const trace::Counter* misses = m.find_counter("cache.misses");
  const double h = hits ? static_cast<double>(hits->value()) : 0.0;
  const double l = h + (misses ? static_cast<double>(misses->value()) : 0.0);
  out["balance.cache_hit_ratio"] = {l > 0 ? h / l : 0.0, "ratio"};
  out["balance.cache_lookups"] = {l, "count"};
}

serve::ServeConfig serve_config(double service_ns) {
  serve::ServeConfig cfg;
  cfg.tenants.push_back({"alpha", 1, 64});
  cfg.tenants.push_back({"beta", 1, 64});
  cfg.batch = kServeBatch;
  cfg.cycle_windows = kServeCycleWindows;
  cfg.global_budget = kServeBudget;
  cfg.default_deadline_ns =
      static_cast<sim::SimTime>(kServeDeadlineServices * service_ns);
  return cfg;
}

/// The serve pass's requests, due relative to simulated time 0.
std::vector<serve::ServeRequest> serve_requests(const Inputs& in,
                                                double service_ns) {
  std::vector<serve::ServeRequest> reqs;
  reqs.reserve(in.serve.size());
  for (std::size_t i = 0; i < in.serve.size(); ++i) {
    serve::ServeRequest r;
    r.tenant = in.serve[i].tenant;
    r.priority = in.serve[i].priority;
    r.image = in.images[in.serve[i].image];
    r.arrival_ns = static_cast<sim::SimTime>(
        std::llround(in.serve[i].due_services * service_ns));
    reqs.push_back(std::move(r));
  }
  return reqs;
}

}  // namespace

std::unique_ptr<marvel::CellEngine> make_engine(sim::Machine& machine,
                                                const std::string& library,
                                                Workload w) {
  auto engine = std::make_unique<marvel::CellEngine>(
      machine, library, marvel::Scenario::kSharded);
  if (w != Workload::kPercall) {
    engine->set_feed(true);
    engine->set_fused(true);
  }
  if (w == Workload::kServe) engine->set_cache(kServeCacheBytes);
  return engine;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> xs) { return pct(xs, 50); }

double pct(const std::vector<double>& xs, double p) {
  return cellport::percentile(xs, p);
}

int SpanLog::open(std::string name, int parent, long request) {
  spans_.push_back({std::move(name), wall_s(), 0.0, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].end_s = wall_s();
}

void SpanLog::write(const std::string& path) const {
  JsonWriter w;
  w.begin_array();
  for (const auto& s : spans_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start_s").value(s.start_s);
    w.key("end_s").value(s.end_s);
    w.key("parent").value(static_cast<double>(s.parent));
    w.key("request").value(static_cast<double>(s.request));
    w.end_object();
  }
  w.end_array();
  std::ofstream(path) << w.str() << '\n';
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  in.seed = seed;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0xCE11);
  auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Seeded Fisher-Yates over v[keep_first..].
  auto permute = [&](auto& v, std::size_t keep_first) {
    for (std::size_t i = v.size(); i > keep_first + 1; --i) {
      std::swap(v[i - 1], v[keep_first + below(i - keep_first)]);
    }
  };
  // The seed picks the scenes (through the dataset generator) and the
  // order they arrive in; the mix of frame sizes stays the dataset's, so
  // host cost per image is comparable across seeds.
  auto shuffled = [&](marvel::Dataset d) {
    permute(d.images, 0);
    return std::move(d.images);
  };
  switch (w) {
    case Workload::kStream:
      in.images = shuffled(marvel::make_mixed_size_ppm_dataset(
          kStreamImages, seed, 0.0));
      break;
    case Workload::kPercall:
      in.images = shuffled(
          marvel::make_mixed_size_dataset(kPercallImages, seed, 70, 0.0));
      break;
    case Workload::kServe: {
      // Every proportion of the traffic is fixed and only its arrangement
      // is seeded, so seeds differ in order and scenes, not in mix:
      // - request i has the dataset's (i mod 4)-th frame size;
      // - every second request of each size repeats, byte for byte, a
      //   seeded carrier of that size from an earlier burst (the
      //   dup_fraction 0.5 shape; the first burst has nothing to repeat
      //   and sends fresh carriers instead);
      // - burst sizes cycle through 1..kServeMaxBurst, alternating above
      //   and below the middle (11, 10, 12, 9, ..., 20, 1);
      // - within a burst, classes follow high, normal, high, low and
      //   tenants alternate, from a seeded offset, so every burst carries
      //   the same class mix.
      marvel::Dataset d = marvel::make_mixed_size_ppm_dataset(
          kServeRequests / 2 + 2 * kServeMaxBurst, seed, 0.0);
      std::map<std::pair<int, int>, std::vector<std::size_t>> by_size;
      for (std::size_t i = 0; i < d.images.size(); ++i) {
        by_size[{d.images[i].width, d.images[i].height}].push_back(i);
      }
      std::vector<std::vector<std::size_t>> fresh;
      for (auto& [size, idx] : by_size) {
        fresh.push_back(std::move(idx));
        permute(fresh.back(), 0);
      }
      in.images = std::move(d.images);
      const std::size_t sizes = fresh.size();
      const std::size_t per_size = kServeRequests / sizes;
      std::vector<std::vector<std::size_t>> used(sizes);
      std::vector<std::size_t> settled(sizes);  // used before this burst
      constexpr serve::Priority kClassCycle[] = {
          serve::Priority::kHigh, serve::Priority::kNormal,
          serve::Priority::kHigh, serve::Priority::kLow};
      std::vector<int> bursts;
      double due = 0;
      int burst_left = 0;
      std::size_t offset = 0;
      for (std::size_t i = 0; i < sizes * per_size; ++i, ++offset) {
        if (burst_left == 0) {
          if (bursts.empty()) {
            for (int b = 1; b <= kServeMaxBurst / 2; ++b) {
              bursts.push_back(b);
              bursts.push_back(kServeMaxBurst + 1 - b);
            }
          }
          burst_left = bursts.back();
          bursts.pop_back();
          due += burst_left / kServeLoad;
          offset = below(4);
          for (std::size_t c = 0; c < sizes; ++c) settled[c] = used[c].size();
        }
        --burst_left;
        const std::size_t c = i % sizes;
        std::vector<std::size_t>& u = used[c];
        ServeSlot s;
        s.due_services = due;
        if ((i / sizes) % 2 == 1 && settled[c] > 0) {
          s.image = u[below(settled[c])];
        } else {
          s.image = fresh[c][u.size()];
          u.push_back(s.image);
        }
        s.tenant = static_cast<int>(offset % 2);
        s.priority = kClassCycle[offset % 4];
        in.serve.push_back(s);
      }
      break;
    }
  }
  return in;
}

double calibrate_serve(const Inputs& in, const std::string& library) {
  // The serve engine without its cache.
  sim::Machine machine;
  auto engine = make_engine(machine, library, Workload::kStream);
  // The first kCalibrationImages / 4 carriers of each frame size, so the
  // calibration sees the same size mix whatever order the seed chose.
  std::vector<img::SicEncoded> sample;
  std::map<std::pair<int, int>, int> per_size;
  for (const img::SicEncoded& im : in.images) {
    if (per_size[{im.width, im.height}]++ < kCalibrationImages / 4) {
      sample.push_back(im);
    }
  }
  const double t0 = machine.ppe().now_ns();
  engine->analyze_stream(sample, {kServeBatch});
  return (machine.ppe().now_ns() - t0) / static_cast<double>(sample.size());
}

PassOut run_pass(const Inputs& in, const std::string& library,
                 double service_ns, const PassConfig& cfg) {
  // Serve requests carry copies of their carriers; they are inputs, so
  // they are made before the memory window opens.
  std::vector<serve::ServeRequest> reqs;
  if (in.workload == Workload::kServe) reqs = serve_requests(in, service_ns);
  const double rss0 = cfg.rss ? open_rss_window() : 0.0;
  sim::Machine machine;
  auto engine_ptr = make_engine(machine, library, in.workload);
  marvel::CellEngine& engine = *engine_ptr;
  if (cfg.probe != nullptr) engine.set_probe(cfg.probe);
  PassOut out;
  std::vector<int> status;
  std::vector<int> level;
  const double sim0 = machine.ppe().now_ns();
  switch (in.workload) {
    case Workload::kStream: {
      Scope root(cfg.spans, "workload.stream");
      out.attempted = in.images.size();
      const Timed timed;
      {
        Scope s(cfg.spans, "marvel.analyze_stream", root.idx(), 0);
        out.results = engine.analyze_stream(in.images, {kStreamBatch});
      }
      timed.stop(out);
      out.served = out.results.size();
      // The client's one request is the whole queue: every result is
      // delivered when analyze_stream returns.
      out.host_latency_ms = {out.host_s * 1e3};
      out.sim_latency_ms = {(machine.ppe().now_ns() - sim0) / 1e6};
      out.sim_latency_high_ms = out.sim_latency_ms;
      break;
    }
    case Workload::kPercall: {
      Scope root(cfg.spans, "workload.percall");
      out.attempted = in.images.size();
      out.results.reserve(in.images.size());
      const Timed timed;
      for (std::size_t i = 0; i < in.images.size(); ++i) {
        const double hi = wall_s();
        const double si = machine.ppe().now_ns();
        {
          Scope s(cfg.spans, "marvel.analyze", root.idx(),
                  static_cast<long>(i));
          out.results.push_back(engine.analyze(in.images[i]));
        }
        out.host_latency_ms.push_back((wall_s() - hi) * 1e3);
        out.sim_latency_ms.push_back((machine.ppe().now_ns() - si) / 1e6);
      }
      timed.stop(out);
      out.served = out.results.size();
      // One class of traffic: every call is the caller's top class.
      out.sim_latency_high_ms = out.sim_latency_ms;
      break;
    }
    case Workload::kServe: {
      Scope root(cfg.spans, "workload.serve");
      // Arrivals count from the clock after engine construction.
      for (auto& r : reqs) r.arrival_ns += machine.ppe().now_ns();
      serve::ServeBroker broker(engine, serve_config(service_ns));
      out.attempted = reqs.size();
      std::vector<serve::ServeResponse> resp;
      const Timed timed;
      {
        Scope s(cfg.spans, "serve.run", root.idx(), 0);
        resp = broker.run(std::move(reqs));
      }
      timed.stop(out);
      out.serve_stats = broker.stats();
      out.host_latency_ms = {out.host_s * 1e3};
      std::vector<double> queue_wait_ms;
      out.results.resize(resp.size());
      for (std::size_t i = 0; i < resp.size(); ++i) {
        const serve::ServeResponse& r = resp[i];
        status.push_back(static_cast<int>(r.status));
        level.push_back(r.degrade_level);
        const bool good = r.status == serve::ServeStatus::kOk ||
                          r.status == serve::ServeStatus::kDegraded;
        if (!good) {
          ++out.refused;
          continue;
        }
        ++out.served;
        if (r.status == serve::ServeStatus::kDegraded) ++out.degraded;
        // Latency runs from the request's due arrival; the simulated
        // generator is never late, so due and actual arrival coincide.
        const double lat = static_cast<double>(r.latency_ns()) / 1e6;
        out.sim_latency_ms.push_back(lat);
        if (r.priority == serve::Priority::kHigh) {
          out.sim_latency_high_ms.push_back(lat);
        }
        queue_wait_ms.push_back(static_cast<double>(r.queue_wait_ns()) / 1e6);
        out.results[i] = r.result;
      }
      if (cfg.collect) {
        const serve::ServeStats& st = out.serve_stats;
        out.layers["serve.queue_wait_p95_ms"] = {pct(queue_wait_ms, 95), "ms"};
        out.layers["serve.max_degrade_level"] = {
            static_cast<double>(st.max_degrade_level), "level"};
        out.layers["serve.cycles"] = {static_cast<double>(st.cycles),
                                     "count"};
      }
      break;
    }
  }
  out.sim_elapsed_ns = machine.ppe().now_ns() - sim0;
  out.has_result.assign(out.results.size(), true);
  out.result_hash.resize(out.results.size());
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const int st = status.empty() ? 0 : status[i];
    const int lv = level.empty() ? 0 : level[i];
    if (!status.empty()) {
      out.has_result[i] =
          st == static_cast<int>(serve::ServeStatus::kOk) ||
          st == static_cast<int>(serve::ServeStatus::kDegraded);
    }
    out.result_hash[i] = result_digest(out.results[i], st, lv);
  }
  if (cfg.collect) {
    collect_machine(machine, out.served, out.sim_elapsed_ns, out.layers);
  }
  if (cfg.rss) out.peak_rss_mb = vm_mb("VmHWM") - rss0;
  return out;
}

double serve_overhead_share(const Inputs& in, const std::string& library,
                            double service_ns) {
  // The broker's bookkeeping in isolation, as bench_serve measures it: the
  // pass's requests arrive at once at a broker provisioned to stay at
  // ladder level 0 and drain them in one cycle, against a direct
  // analyze_stream of the same queue. Both engines carry the cache.
  const std::size_t n = in.serve.size();
  serve::ServeConfig cfg = serve_config(service_ns);
  cfg.global_budget = 2 * n + 8;
  cfg.cycle_windows = static_cast<int>((n + kServeBatch - 1) / kServeBatch);
  for (auto& t : cfg.tenants) t.queue_cap = n;
  double broker_s = 0;
  {
    std::vector<serve::ServeRequest> reqs = serve_requests(in, service_ns);
    sim::Machine machine;
    auto engine = make_engine(machine, library, in.workload);
    for (auto& r : reqs) r.arrival_ns = machine.ppe().now_ns();
    serve::ServeBroker broker(*engine, cfg);
    const double h0 = wall_s();
    broker.run(std::move(reqs));
    broker_s = wall_s() - h0;
  }
  std::vector<img::SicEncoded> queue;
  for (const ServeSlot& s : in.serve) queue.push_back(in.images[s.image]);
  sim::Machine machine;
  auto engine = make_engine(machine, library, in.workload);
  const double h0 = wall_s();
  engine->analyze_stream(queue, {kServeBatch});
  const double direct_s = wall_s() - h0;
  return broker_s / direct_s - 1.0;
}

}  // namespace cellbench
