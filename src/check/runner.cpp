#include "check/runner.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "check/faults.h"
#include "check/oracle.h"
#include "guard/policy.h"
#include "features/color_correlogram.h"
#include "features/color_histogram.h"
#include "features/edge_histogram.h"
#include "features/texture.h"
#include "img/codec.h"
#include "img/synth.h"
#include "kernels/cc_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "kernels/messages.h"
#include "kernels/tx_kernel.h"
#include "marvel/cell_engine.h"
#include "marvel/reference_engine.h"
#include "marvel/task_graph.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "port/taskpool.h"
#include "probe/attribution.h"
#include "serve/broker.h"
#include "serve/request.h"
#include "sim/invariants.h"
#include "sim/machine.h"
#include "support/aligned.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"
#include "trace/chrome_export.h"
#include "trace/trace.h"

namespace cellport::check {

namespace {

RunOutcome fail(std::string property, std::string message) {
  RunOutcome out;
  out.ok = false;
  out.property = std::move(property);
  out.message = std::move(message);
  return out;
}

/// Renders the scenario's synthetic images (and, for codec-consuming
/// modes, their SIC streams).
struct Inputs {
  std::vector<img::RgbImage> pixels;
  std::vector<img::SicEncoded> encoded;
};

Inputs make_inputs(const ScenarioSpec& spec, bool through_codec) {
  Inputs in;
  for (const ImageSpec& s : spec.images) {
    img::RgbImage img = img::synth_image(static_cast<img::SceneKind>(s.kind),
                                         s.seed, s.width, s.height);
    if (through_codec) {
      // The feed rider swaps the lossy SIC streams for lossless P6 PPM
      // carriers: the engine's SPE ingest and the oracle's PPE decode
      // then consume the exact same bytes, so the comparison stays
      // bit-for-bit.
      in.encoded.push_back(spec.feed ? img::ppm_encode(img)
                                     : img::sic_encode(img, s.quality));
    } else {
      in.pixels.push_back(std::move(img));
    }
  }
  return in;
}

/// Sends each fault kind through `iface` and checks the full contract:
/// the call throws, the expected invariant rule (and only it) was
/// reported, and a benign follow-up call still works.
std::string run_fault_probe(port::SPEInterface& iface, int kind) {
  cellport::AlignedBuffer<std::uint8_t> host(1024);
  port::WrappedMessage<FaultMsg> msg;
  msg->ea = reinterpret_cast<std::uint64_t>(host.data());
  msg->which = kind;

  bool threw = false;
  try {
    iface.SendAndWait(1, msg.ea());
  } catch (const cellport::Error&) {
    threw = true;
  }
  if (!threw) {
    return std::string("fault '") + fault_kind_name(kind) +
           "' did not surface as an exception";
  }
  auto violations = sim::InvariantChannel::instance().drain();
  const char* rule = fault_kind_rule(kind);
  bool found = false;
  for (const auto& v : violations) {
    if (v.rule == rule) {
      found = true;
    } else {
      return "fault '" + std::string(fault_kind_name(kind)) +
             "' reported unexpected rule '" + v.rule + "' (" + v.message +
             ")";
    }
  }
  if (!found) {
    return "fault '" + std::string(fault_kind_name(kind)) +
           "' was not reported to the InvariantChannel (expected rule '" +
           rule + "')";
  }
  // The machine survives: an unknown fault kind is a no-op returning 0.
  msg->which = 99;
  if (iface.SendAndWait(1, msg.ea()) != 0) {
    return "machine did not survive fault '" +
           std::string(fault_kind_name(kind)) + "'";
  }
  return "";
}

/// Post-workload hygiene shared by every mode: the channel must be empty
/// (faults drained it already) and the machine-level aggregate rules
/// (EIB byte conservation, mailbox accounting, LS peaks) must hold.
RunOutcome check_clean(sim::Machine& machine) {
  auto leftovers = sim::InvariantChannel::instance().drain();
  if (!leftovers.empty()) {
    return fail("invariants.channel-clean",
                "workload reported " + std::to_string(leftovers.size()) +
                    " violation(s); first: " + to_string(leftovers[0]));
  }
  auto aggregate = sim::check_machine_invariants(machine);
  sim::InvariantChannel::instance().drain();  // reported above, too
  if (!aggregate.empty()) {
    return fail("invariants.machine", to_string(aggregate[0]));
  }
  return RunOutcome{};
}

// ---- kernel-direct mode ----

struct KernelDesc {
  port::KernelModule* module;
  int dim;
  std::string (*compare)(const features::FeatureVector&,
                         const features::FeatureVector&);
  features::FeatureVector (*reference)(const img::RgbImage&,
                                       sim::ScalarContext*);
  const char* name;
};

KernelDesc kernel_desc(int kernel) {
  switch (kernel) {
    case kKernelCh:
      return {&kernels::ch_module(), features::kColorHistogramDim,
              &compare_ch, &features::extract_color_histogram, "ch"};
    case kKernelCc:
      return {&kernels::cc_module(), features::kColorCorrelogramDim,
              &compare_cc, &features::extract_color_correlogram, "cc"};
    case kKernelEh:
      return {&kernels::eh_module(), features::kEdgeHistogramDim,
              &compare_eh, &features::extract_edge_histogram, "eh"};
    case kKernelTx:
      return {&kernels::tx_module(), features::kTextureDim, &compare_tx,
              &features::extract_texture, "tx"};
    default:
      throw cellport::ConfigError("scenario: bad kernel index " +
                                  std::to_string(kernel));
  }
}

RunOutcome run_kernel_direct(const ScenarioSpec& spec, const RunConfig&,
                             std::string* canonical) {
  Inputs in = make_inputs(spec, /*through_codec=*/false);
  KernelDesc k = kernel_desc(spec.kernel);

  sim::Machine machine(sim::Machine::Config{spec.num_spes});
  port::SPEInterface iface(*k.module);
  std::unique_ptr<port::SPEInterface> fault_if;
  if (spec.fault_kind >= 0) {
    fault_if = std::make_unique<port::SPEInterface>(fault_module());
  }

  JsonWriter digest;
  digest.begin_array();
  int opcode = static_cast<int>(
      spec.use_naive ? kernels::SPU_Run_Naive : kernels::SPU_Run);
  for (std::size_t i = 0; i < in.pixels.size(); ++i) {
    const img::RgbImage& pixels = in.pixels[i];
    cellport::AlignedBuffer<float> out(
        cellport::round_up(static_cast<std::size_t>(k.dim), 8));
    port::WrappedMessage<kernels::ImageMsg> msg;
    msg->pixels_ea = reinterpret_cast<std::uint64_t>(pixels.data());
    msg->width = pixels.width();
    msg->height = pixels.height();
    msg->stride = pixels.stride();
    msg->buffering = spec.buffering;
    msg->block_rows = spec.block_rows;
    msg->out_ea = reinterpret_cast<std::uint64_t>(out.data());
    msg->out_count = k.dim;

    double t0 = machine.ppe().now_ns();
    iface.SendAndWait(opcode, msg.ea());
    if (!(machine.ppe().now_ns() > t0)) {
      return fail("timing.progress",
                  "kernel call did not advance simulated time");
    }

    features::FeatureVector cell;
    cell.name = k.name;
    cell.values.assign(out.data(), out.data() + k.dim);
    features::FeatureVector ref = k.reference(pixels, nullptr);
    std::string err = k.compare(cell, ref);
    if (!err.empty()) {
      return fail(std::string("oracle.") + k.name,
                  err + " (image " + std::to_string(i) + ", " +
                      std::to_string(pixels.width()) + "x" +
                      std::to_string(pixels.height()) + ")");
    }
    for (float v : cell.values) digest.value(static_cast<double>(v));
  }
  digest.end_array();
  if (canonical != nullptr) *canonical = digest.str();

  if (fault_if != nullptr) {
    RunOutcome pre = check_clean(machine);
    if (!pre.ok) return pre;
    std::string err = run_fault_probe(*fault_if, spec.fault_kind);
    if (!err.empty()) return fail("fault.contract", err);
  }
  return check_clean(machine);
}

// ---- engine modes ----

/// The engine schedule a scenario runs: the sharded rider replaces the
/// mode's static schedule wholesale — same machine, same images, same
/// oracle, different SPE plan.
marvel::Scenario engine_scenario(const ScenarioSpec& spec) {
  if (spec.sharded) return marvel::Scenario::kSharded;
  switch (spec.mode) {
    case Mode::kEngineSingle: return marvel::Scenario::kSingleSPE;
    case Mode::kEngineMulti: return marvel::Scenario::kMultiSPE;
    case Mode::kEngineMulti2: return marvel::Scenario::kMultiSPE2;
    default:
      throw cellport::ConfigError("not an engine mode");
  }
}

/// Simulated-time per-call deadline for guarded scenario runs: far above
/// any legitimate kernel time on the generator's image sizes, far below
/// the kNeverNs stamp a hung completion carries.
constexpr sim::SimTime kGuardDeadlineNs = 500e6;  // 500 ms simulated

/// Translates a scenario's scheduled fault into the sim layer's
/// injection knobs.
sim::FaultInjection sched_injection(const ScenarioSpec& spec) {
  sim::FaultInjection f;
  switch (spec.sched_fault) {
    case kSchedHangTransient:
      f.hang_after = spec.sched_at;
      f.hang_sticky = false;
      break;
    case kSchedHangPersistent:
      f.hang_after = spec.sched_at;
      f.hang_sticky = true;
      f.clears_on_restart = false;
      break;
    case kSchedSlow:
      f.slow_after = spec.sched_at;
      f.slow_ns = 4 * kGuardDeadlineNs;
      break;
    default:
      f.dma_error_after = spec.sched_at;
      break;
  }
  return f;
}

/// Whether the scenario's scheduled fault lands on its machine.
bool fault_armed(const ScenarioSpec& spec) {
  return spec.guarded && spec.sched_fault >= 0 &&
         spec.sched_spe < spec.num_spes;
}

/// Builds an engine for `spec` on `machine` running schedule `scen`, with
/// the scenario's feed/fused/balanced riders and cache budget. A
/// `guarded` engine also gets the cellguard policy and the scheduled
/// fault, armed after construction so it fires during analysis, not
/// during the module-open handshakes.
std::unique_ptr<marvel::CellEngine> make_engine(const ScenarioSpec& spec,
                                                const RunConfig& cfg,
                                                sim::Machine& machine,
                                                marvel::Scenario scen,
                                                bool guarded) {
  guard::GuardPolicy policy;
  if (guarded) {
    policy.enabled = true;
    policy.retry.deadline_ns = kGuardDeadlineNs;
  }
  auto engine = std::make_unique<marvel::CellEngine>(
      machine, cfg.library_path, scen,
      static_cast<kernels::BufferingDepth>(spec.buffering), spec.use_naive,
      policy);
  engine->set_feed(spec.feed);
  engine->set_fused(spec.fused);
  engine->set_balanced(spec.balanced);
  if (spec.cache_kb > 0) {
    engine->set_cache(static_cast<std::size_t>(spec.cache_kb) * 1024);
  }
  if (guarded && fault_armed(spec)) {
    machine.spe(spec.sched_spe).inject_fault(sched_injection(spec));
  }
  return engine;
}

RunOutcome run_engine(const ScenarioSpec& spec, const RunConfig& cfg,
                      std::string* canonical) {
  Inputs in = make_inputs(spec, /*through_codec=*/true);
  const marvel::Scenario scen = engine_scenario(spec);
  const bool injected = fault_armed(spec);
  sim::Machine machine(sim::Machine::Config{spec.num_spes});
  std::unique_ptr<marvel::CellEngine> engine =
      make_engine(spec, cfg, machine, scen, spec.guarded);
  marvel::ReferenceEngine ref(sim::cell_ppe(), cfg.library_path);

  // cellprobe rides every engine scenario. The oracle comparisons below
  // then run against *probed* output, so any probe that perturbed
  // results or timing would fail the equivalence checks, not just the
  // partition property.
  probe::Attribution attr;
  engine->set_probe(&attr);

  std::vector<marvel::AnalysisResult> cell;
  marvel::StreamStats stream_stats;
  double t0 = machine.ppe().now_ns();
  if (spec.stream_batch > 0) {
    cell = engine->analyze_stream(in.encoded, {spec.stream_batch},
                                  &stream_stats);
  } else {
    for (const auto& enc : in.encoded) cell.push_back(engine->analyze(enc));
  }
  double elapsed_ns = machine.ppe().now_ns() - t0;
  if (!(machine.ppe().now_ns() > t0)) {
    return fail("timing.progress",
                "engine run did not advance simulated time");
  }

  // Partition property: each request's exclusive per-phase spans
  // telescope to its elapsed time, so the aggregate covered time equals
  // the aggregate request time up to double rounding.
  if (attr.requests() == 0) {
    return fail("probe.coverage", "engine run emitted no request traces");
  }
  if (std::abs(attr.covered_ns() - attr.request_elapsed_ns()) >
      1e-6 * std::max(1.0, attr.request_elapsed_ns())) {
    return fail("probe.partition",
                "attribution covers " + std::to_string(attr.covered_ns()) +
                    " ns of " + std::to_string(attr.request_elapsed_ns()) +
                    " ns of request time");
  }
  if (attr.request_elapsed_ns() > elapsed_ns * (1 + 1e-9)) {
    return fail("probe.partition",
                "request time exceeds the run's elapsed time");
  }
  if (cell.size() != in.encoded.size()) {
    return fail("oracle.engine",
                "result count " + std::to_string(cell.size()) + " for " +
                    std::to_string(in.encoded.size()) + " images");
  }

  std::string digest;
  for (std::size_t i = 0; i < in.encoded.size(); ++i) {
    marvel::AnalysisResult expected = ref.analyze(in.encoded[i]);
    std::string err = compare_results(cell[i], expected);
    if (!err.empty()) {
      return fail("oracle.engine",
                  err + " (image " + std::to_string(i) + ")");
    }
    digest += canonical_result_json(cell[i]);
    digest += '\n';
  }
  if (canonical != nullptr) *canonical = digest;

  if (spec.fault_kind >= 0) {
    RunOutcome pre = check_clean(machine);
    if (!pre.ok) return pre;
    // The engine pinned SPEs 0-4 (0-7 for kMultiSPE2, which the
    // generator excludes from fault scenarios); the probe takes the
    // next free SPE and must not disturb the engine's results.
    port::SPEInterface fault_if(fault_module());
    std::string err = run_fault_probe(fault_if, spec.fault_kind);
    if (!err.empty()) return fail("fault.contract", err);
    marvel::AnalysisResult after = engine->analyze(in.encoded[0]);
    err = compare_results(after, ref.analyze(in.encoded[0]));
    if (!err.empty()) {
      return fail("fault.isolation",
                  "engine results changed after a spare-SPE fault: " + err);
    }
    cell.push_back(std::move(after));  // keep guard accounting exact
  }

  RunOutcome clean = check_clean(machine);
  if (!clean.ok) return clean;

  if (spec.guarded) {
    // Degradation accounting: what the results report must equal what
    // the runtime counted — a fallback that goes unreported (or a
    // phantom report) is exactly the silent-wrongness the guard exists
    // to rule out.
    std::size_t degraded_total = 0;
    for (const auto& r : cell) degraded_total += r.degraded.size();
    std::uint64_t fallbacks =
        machine.metrics().counter("guard.ppe_fallbacks").value();
    if (degraded_total != fallbacks) {
      return fail("guard.accounting",
                  "results report " + std::to_string(degraded_total) +
                      " degraded stage(s) but guard.ppe_fallbacks is " +
                      std::to_string(fallbacks));
    }
    std::uint64_t timeouts =
        machine.metrics().counter("guard.timeouts").value();
    std::uint64_t retries =
        machine.metrics().counter("guard.retries").value();
    if (injected) {
      // A streamed run may resolve the fault at the ring layer (batch
      // timeout / per-request re-run) before the guard's own counters
      // see it; any of the recovery layers counts as a trace. A `slow`
      // fault can also be *absorbed*: the streamed deadline budget is
      // per-request-deadline x batch-size, so a single 4x-deadline stall
      // inside a large enough batch completes legally — in which case
      // the stall must be visible in the run's simulated elapsed time.
      std::size_t stream_recoveries = stream_stats.request_retries +
                                      stream_stats.batch_timeouts +
                                      stream_stats.fallbacks;
      bool slow_absorbed = spec.stream_batch > 0 &&
                           spec.sched_fault == kSchedSlow &&
                           elapsed_ns >= 4 * kGuardDeadlineNs;
      // A schedule can also go off the end of the run without firing:
      // a streamed window retires a whole batch of requests behind one
      // doorbell, so the faulted SPE may see fewer completions than the
      // scheduled trigger index. No fired fault, no required trace.
      bool fired =
          machine.spe(spec.sched_spe).fault_injection_fired();
      if (fired &&
          timeouts + retries + fallbacks + stream_recoveries == 0 &&
          !slow_absorbed) {
        return fail("guard.not-exercised",
                    std::string("scheduled fault '") +
                        sched_fault_name(spec.sched_fault) + "' on spe" +
                        std::to_string(spec.sched_spe) +
                        " left no trace in the guard counters");
      }
    } else {
      if (degraded_total != 0) {
        return fail("guard.spurious-degrade",
                    "fault-free guarded run degraded " +
                        std::to_string(degraded_total) + " stage(s)");
      }
      // Transparency: a fault-free guarded run must produce the exact
      // results and simulated time of an unguarded run.
      sim::Machine m2(sim::Machine::Config{spec.num_spes});
      std::unique_ptr<marvel::CellEngine> plain =
          make_engine(spec, cfg, m2, scen, /*guarded=*/false);
      std::vector<marvel::AnalysisResult> cell2;
      double u0 = m2.ppe().now_ns();
      if (spec.stream_batch > 0) {
        // Guarded streams retire windows sequentially; force the same
        // schedule on the unguarded engine so the exact comparison sees
        // the guard's overhead, not the pipelining it forgoes.
        cell2 = plain->analyze_stream(
            in.encoded, {spec.stream_batch, /*sequential=*/true}, nullptr);
      } else {
        for (const auto& enc : in.encoded) {
          cell2.push_back(plain->analyze(enc));
        }
      }
      double unguarded_ns = m2.ppe().now_ns() - u0;
      for (std::size_t i = 0; i < in.encoded.size(); ++i) {
        if (canonical_result_json(cell[i]) !=
            canonical_result_json(cell2[i])) {
          return fail("guard.transparency",
                      "guarded result differs from unguarded (image " +
                          std::to_string(i) + ")");
        }
      }
      // Guarded and plain lanes share every call site, so a fault-free
      // guarded run charges exactly the unguarded time.
      if (elapsed_ns != unguarded_ns) {
        return fail("guard.overhead",
                    "guarded run took " + std::to_string(elapsed_ns) +
                        " ns vs unguarded " +
                        std::to_string(unguarded_ns) + " ns (not equal)");
      }
      sim::InvariantChannel::instance().drain();  // probe machine's dust
    }
  }

  if (spec.scaling_probe) {
    auto per_image_ns = [&](marvel::Scenario s) {
      sim::Machine m(sim::Machine::Config{8});
      std::unique_ptr<marvel::CellEngine> e =
          make_engine(spec, cfg, m, s, /*guarded=*/false);
      double probe_t0 = m.ppe().now_ns();
      e->analyze(in.encoded[0]);
      return m.ppe().now_ns() - probe_t0;
    };
    double single = per_image_ns(marvel::Scenario::kSingleSPE);
    double multi = per_image_ns(marvel::Scenario::kMultiSPE);
    if (!(multi <= single)) {
      return fail("scaling.multi-not-slower",
                  "kMultiSPE " + std::to_string(multi) +
                      " ns > kSingleSPE " + std::to_string(single) + " ns");
    }
    if (spec.mode == Mode::kEngineMulti2) {
      double multi2 = per_image_ns(marvel::Scenario::kMultiSPE2);
      if (!(multi2 <= multi * 1.02)) {
        return fail("scaling.multi2-regression",
                    "kMultiSPE2 " + std::to_string(multi2) +
                        " ns > 1.02 * kMultiSPE " + std::to_string(multi) +
                        " ns");
      }
    }
    sim::InvariantChannel::instance().drain();  // probe machines' dust
  }
  return RunOutcome{};
}

// ---- cellserve mode ----

/// Far deadline for serve scenarios: above any legitimate service time
/// including guard recovery (a `slow` fault stalls 4x the 500 ms guard
/// deadline), so a miss under it is a real scheduling bug. The tight
/// deadline sits below any service time, so misses are expected and the
/// property set checks their accounting instead of their absence.
constexpr sim::SimTime kServeFarDeadlineNs = 20'000'000'000;  // 20 s
constexpr sim::SimTime kServeTightDeadlineNs = 2'000'000;     // 2 ms

RunOutcome run_serve(const ScenarioSpec& spec, const RunConfig& cfg) {
  Inputs in = make_inputs(spec, /*through_codec=*/true);
  sim::Machine machine(sim::Machine::Config{spec.num_spes});
  std::unique_ptr<marvel::CellEngine> engine =
      make_engine(spec, cfg, machine, engine_scenario(spec), spec.guarded);
  marvel::ReferenceEngine ref(sim::cell_ppe(), cfg.library_path);

  serve::ServeConfig scfg;
  for (int t = 0; t < spec.serve_tenants; ++t) {
    serve::TenantConfig tc;
    tc.name = "t" + std::to_string(t);
    tc.weight = 1 + t % 2;
    tc.queue_cap = 4;  // small enough that a lopsided burst can reject
    scfg.tenants.push_back(tc);
  }
  scfg.batch = spec.serve_batch;
  scfg.cycle_windows = 1;
  scfg.global_budget = static_cast<std::size_t>(spec.serve_budget);
  scfg.default_deadline_ns =
      spec.serve_tight ? kServeTightDeadlineNs : kServeFarDeadlineNs;

  // One request per image, all arriving as a single burst (maximum
  // contention for the budget). Tenant and priority come from a
  // decorrelated sub-stream drawn per index, so shrinking the corpus
  // keeps the surviving requests' assignments.
  Rng rng(spec.seed ^ 0x5e57e11aull);
  std::vector<serve::ServeRequest> requests;
  for (const auto& enc : in.encoded) {
    serve::ServeRequest r;
    r.tenant = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(spec.serve_tenants)));
    r.priority = static_cast<serve::Priority>(rng.next_below(3));
    r.image = enc;
    requests.push_back(r);
  }

  serve::ServeBroker broker(*engine, scfg);
  std::vector<serve::ServeResponse> rs = broker.run(requests);
  if (rs.size() != requests.size()) {
    return fail("serve.responses",
                "broker returned " + std::to_string(rs.size()) +
                    " responses for " + std::to_string(requests.size()) +
                    " requests");
  }

  // Property (c): every request terminates in exactly one terminal
  // status and the serve.* accounting agrees — stats vs responses vs
  // metric counters, globally and per tenant.
  const serve::ServeStats& st = broker.stats();
  std::uint64_t ok = 0, degraded = 0, shed = 0, missed = 0, rejected = 0;
  for (const auto& r : rs) {
    switch (r.status) {
      case serve::ServeStatus::kOk: ++ok; break;
      case serve::ServeStatus::kDegraded: ++degraded; break;
      case serve::ServeStatus::kShed: ++shed; break;
      case serve::ServeStatus::kDeadlineMissed: ++missed; break;
      case serve::ServeStatus::kRejected: ++rejected; break;
      case serve::ServeStatus::kQueued:
        return fail("serve.terminal",
                    "a response is still kQueued after run()");
    }
  }
  auto counter_of = [&](const std::string& name) {
    const auto& counters = machine.metrics().counters();
    auto it = counters.find(name);
    return it == counters.end() ? std::uint64_t{0} : it->second->value();
  };
  if (st.admitted != st.ok + st.degraded + st.shed + st.deadline_missed ||
      st.admitted + st.rejected != rs.size()) {
    return fail("serve.accounting",
                "admitted " + std::to_string(st.admitted) + " != ok " +
                    std::to_string(st.ok) + " + degraded " +
                    std::to_string(st.degraded) + " + shed " +
                    std::to_string(st.shed) + " + missed " +
                    std::to_string(st.deadline_missed) + " (rejected " +
                    std::to_string(st.rejected) + ", requests " +
                    std::to_string(rs.size()) + ")");
  }
  if (st.ok != ok || st.degraded != degraded || st.shed != shed ||
      st.deadline_missed != missed || st.rejected != rejected) {
    return fail("serve.accounting",
                "stats disagree with the response statuses");
  }
  if (counter_of("serve.admitted") != st.admitted ||
      counter_of("serve.ok") != st.ok ||
      counter_of("serve.degraded") != st.degraded ||
      counter_of("serve.shed") != st.shed ||
      counter_of("serve.deadline_missed") != st.deadline_missed ||
      counter_of("serve.rejected") != st.rejected) {
    return fail("serve.accounting",
                "serve.* counters disagree with broker stats");
  }
  std::uint64_t tenant_admitted = 0;
  for (std::size_t t = 0; t < st.tenants.size(); ++t) {
    const serve::TenantStats& ts = st.tenants[t];
    if (ts.admitted != ts.ok + ts.degraded + ts.shed + ts.deadline_missed) {
      return fail("serve.accounting",
                  "tenant " + std::to_string(t) +
                      " admitted != sum of terminal statuses");
    }
    const std::string p = "serve.t" + std::to_string(t) + ".";
    if (counter_of(p + "admitted") != ts.admitted ||
        counter_of(p + "rejected") != ts.rejected ||
        counter_of(p + "shed") != ts.shed) {
      return fail("serve.accounting",
                  "serve.t" + std::to_string(t) +
                      ".* counters disagree with tenant stats");
    }
    tenant_admitted += ts.admitted;
  }
  if (tenant_admitted != st.admitted) {
    return fail("serve.accounting",
                "per-tenant admitted do not sum to the global count");
  }

  // Property (a): with far deadlines nothing may starve — every
  // admitted-and-not-shed request is served, and shedding is always
  // explicit (a shed response never carries a result).
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    if (r.status == serve::ServeStatus::kShed && r.served) {
      return fail("serve.no-starvation",
                  "request " + std::to_string(i) +
                      " is both shed and served");
    }
    if (!spec.serve_tight) {
      if (r.status == serve::ServeStatus::kDeadlineMissed) {
        return fail("serve.no-starvation",
                    "request " + std::to_string(i) +
                        " missed a far (20 s) deadline");
      }
      if ((r.status == serve::ServeStatus::kOk ||
           r.status == serve::ServeStatus::kDegraded) &&
          !r.served) {
        return fail("serve.no-starvation",
                    "request " + std::to_string(i) +
                        " reports success without service");
      }
    }
  }

  // Property (b): tenant isolation — every served result is the
  // bit-exact (within the oracle's tolerances) prefix of the reference
  // result at its degrade level, no matter what faults or neighbours
  // the run carried.
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    if (!r.served) continue;
    marvel::AnalysisResult expected = ref.analyze(in.encoded[i]);
    const int clamp = broker.level_max_models(r.degrade_level);
    auto clip = [&](std::vector<double>* v) {
      if (clamp > 0 && v->size() > static_cast<std::size_t>(clamp)) {
        v->resize(static_cast<std::size_t>(clamp));
      }
    };
    clip(&expected.ch_detect.values);
    clip(&expected.cc_detect.values);
    clip(&expected.tx_detect.values);
    clip(&expected.eh_detect.values);
    std::string err = compare_results(r.result, expected);
    if (!err.empty()) {
      return fail("serve.isolation",
                  err + " (request " + std::to_string(i) + ", tenant " +
                      std::to_string(r.tenant) + ", level " +
                      std::to_string(r.degrade_level) + ")");
    }
    if (!spec.guarded) {
      // Unguarded runs may only carry the broker's own degrade records.
      for (const std::string& rec : r.result.degraded) {
        if (rec.rfind("serve:", 0) != 0) {
          return fail("serve.isolation",
                      "unguarded request " + std::to_string(i) +
                          " carries non-serve degrade record '" + rec +
                          "'");
        }
      }
    }
  }
  sim::InvariantChannel::instance().drain();  // reference engine's dust
  return check_clean(machine);
}

// ---- TaskPool mode ----

RunOutcome run_taskpool(const ScenarioSpec& spec, const RunConfig& cfg) {
  Inputs in = make_inputs(spec, /*through_codec=*/true);
  learn::MarvelModels models = learn::load_library(cfg.library_path);

  std::vector<marvel::ImageTasks> images = marvel::build_task_graph(
      in.encoded, models, spec.buffering, spec.block_rows);

  cellport::AlignedBuffer<std::uint8_t> fault_host(1024);
  port::WrappedMessage<FaultMsg> fault_msg;
  fault_msg->ea = reinterpret_cast<std::uint64_t>(fault_host.data());
  if (spec.fault_kind >= 0) fault_msg->which = spec.fault_kind;

  auto run_pool = [&](int workers, port::TaskPool::Stats* stats,
                      bool inject_fault) -> std::string {
    sim::Machine machine(sim::Machine::Config{spec.num_spes});
    port::TaskPool pool(machine, workers);
    std::vector<port::TaskPool::TaskId> all;
    port::TaskPool::TaskId fault_id = 0;
    bool have_fault = false;
    for (auto& image : images) {
      for (port::TaskPool::TaskId id : marvel::submit_tasks(pool, image)) {
        all.push_back(id);
      }
      if (inject_fault && !have_fault) {
        fault_id = pool.submit(fault_module(), 1, fault_msg.ea());
        have_fault = true;
      }
    }
    pool.wait_all();
    *stats = pool.stats();

    std::size_t expected =
        all.size() + static_cast<std::size_t>(have_fault);
    if (stats->tasks_run != expected) {
      return "tasks_run " + std::to_string(stats->tasks_run) + " != " +
             std::to_string(expected) + " submitted";
    }
    if (stats->worker_busy_ns.size() !=
        static_cast<std::size_t>(workers)) {
      return "worker_busy_ns has " +
             std::to_string(stats->worker_busy_ns.size()) + " entries for " +
             std::to_string(workers) + " workers";
    }
    if (!(stats->makespan_ns > 0)) return "makespan is not positive";
    if (stats->faults != static_cast<std::size_t>(have_fault)) {
      return "stats.faults " + std::to_string(stats->faults) +
             ", expected " + std::to_string(have_fault ? 1 : 0);
    }
    for (port::TaskPool::TaskId id : all) {
      if (pool.task_failed(id)) {
        return "healthy task " + std::to_string(id) +
               " reported failed: " + pool.task_error(id);
      }
    }
    if (have_fault) {
      if (!pool.task_failed(fault_id)) {
        return "fault task did not report failure";
      }
      if (pool.task_error(fault_id).empty()) {
        return "fault task has an empty error message";
      }
      auto violations = sim::InvariantChannel::instance().drain();
      const char* rule = fault_kind_rule(spec.fault_kind);
      bool found = false;
      for (const auto& v : violations) {
        if (v.rule == rule) found = true;
      }
      if (!found) {
        return std::string("worker fault '") +
               fault_kind_name(spec.fault_kind) +
               "' was not reported to the InvariantChannel";
      }
    }
    RunOutcome clean = check_clean(machine);
    if (!clean.ok) return clean.property + ": " + clean.message;
    return "";
  };

  port::TaskPool::Stats stats;
  std::string err =
      run_pool(spec.pool_workers, &stats, spec.fault_kind >= 0);
  if (!err.empty()) return fail("taskpool.accounting", err);

  // The differential oracle: every extraction and detection the pool ran
  // must match the reference engine on the same encoded images.
  marvel::ReferenceEngine ref(sim::cell_ppe(), cfg.library_path);
  for (std::size_t i = 0; i < in.encoded.size(); ++i) {
    marvel::AnalysisResult expected = ref.analyze(in.encoded[i]);
    marvel::AnalysisResult got;
    auto take = [](const marvel::FeatureTask& ft,
                   features::FeatureVector* fv,
                   marvel::DetectionScores* sc) {
      fv->values.assign(ft.out.data(), ft.out.data() + ft.dim);
      sc->values.assign(ft.scores.data(),
                        ft.scores.data() + ft.set->models.size());
    };
    take(images[i].features[0], &got.color_histogram, &got.ch_detect);
    take(images[i].features[1], &got.color_correlogram, &got.cc_detect);
    take(images[i].features[2], &got.texture, &got.tx_detect);
    take(images[i].features[3], &got.edge_histogram, &got.eh_detect);
    std::string oracle_err = compare_results(got, expected);
    if (!oracle_err.empty()) {
      return fail("oracle.taskpool",
                  oracle_err + " (image " + std::to_string(i) + ")");
    }
  }
  sim::InvariantChannel::instance().drain();  // reference engine is clean

  // Parallel sanity: the W-worker makespan must not be pathologically
  // worse than the one-worker serial schedule of the same task graph
  // (Graham-style bound with a generous allowance for extra code
  // switches across workers).
  if (spec.pool_workers > 1 && spec.fault_kind < 0) {
    port::TaskPool::Stats serial;
    err = run_pool(1, &serial, false);
    if (!err.empty()) return fail("taskpool.accounting", err);
    double bound = serial.makespan_ns * 1.25 + 5e6;
    if (!(stats.makespan_ns <= bound)) {
      return fail("taskpool.scaling",
                  std::to_string(spec.pool_workers) + "-worker makespan " +
                      std::to_string(stats.makespan_ns) +
                      " ns exceeds serial bound " + std::to_string(bound) +
                      " ns");
    }
  }
  return RunOutcome{};
}

/// Installs a TraceSession for the duration of one run (exception-safe).
struct SessionGuard {
  trace::TraceSession session;
  SessionGuard() { session.install(); }
  ~SessionGuard() { session.uninstall(); }
};

RunOutcome run_once(const ScenarioSpec& spec, const RunConfig& cfg,
                    std::string* canonical) {
  switch (spec.mode) {
    case Mode::kKernelDirect:
      return run_kernel_direct(spec, cfg, canonical);
    case Mode::kEngineSingle:
    case Mode::kEngineMulti:
    case Mode::kEngineMulti2:
      return spec.serve ? run_serve(spec, cfg)
                        : run_engine(spec, cfg, canonical);
    case Mode::kTaskPool:
      return run_taskpool(spec, cfg);
  }
  throw cellport::ConfigError("unknown scenario mode");
}

}  // namespace

RunOutcome run_scenario(const ScenarioSpec& spec, const RunConfig& cfg) {
  sim::InvariantChannel::instance().drain();  // stale reports, if any
  try {
    if (spec.replay_twice) {
      // Determinism property: the same scenario, run twice under fresh
      // trace sessions, must produce byte-identical canonical results
      // and byte-identical Chrome traces (simulated time is carried by
      // message timestamps, so host scheduling must not leak in).
      std::string canonical1, canonical2, trace1, trace2;
      {
        SessionGuard guard;
        RunOutcome out = run_once(spec, cfg, &canonical1);
        if (!out.ok) return out;
        trace1 = trace::chrome_trace_json(guard.session);
      }
      sim::InvariantChannel::instance().drain();
      {
        SessionGuard guard;
        RunOutcome out = run_once(spec, cfg, &canonical2);
        if (!out.ok) return out;
        trace2 = trace::chrome_trace_json(guard.session);
      }
      if (canonical1 != canonical2) {
        return fail("determinism.result",
                    "rerun produced different canonical results (" +
                        std::to_string(canonical1.size()) + " vs " +
                        std::to_string(canonical2.size()) + " bytes)");
      }
      if (trace1 != trace2) {
        return fail("determinism.trace",
                    "rerun produced different traces (" +
                        std::to_string(trace1.size()) + " vs " +
                        std::to_string(trace2.size()) + " bytes)");
      }
      return RunOutcome{};
    }
    return run_once(spec, cfg, nullptr);
  } catch (const cellport::Error& e) {
    return fail("exception", e.what());
  }
}

}  // namespace cellport::check
