// cellserve tests: admission control (per-tenant caps, global budget,
// quarantine shrink), deadline scheduling (EDF within class, weighted
// round-robin across tenants, strict class priority), the degrade
// ladder (concept clamp -> minimal detect -> shed, never rejecting
// before shedding and never shedding kHigh), and the terminal-status
// accounting invariant: every admitted request ends in exactly one of
// {ok, degraded, shed, deadline_missed} with matching serve.* counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "guard/policy.h"
#include "kernels/messages.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "probe/request_trace.h"
#include "serve/admission.h"
#include "serve/broker.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "sim/invariants.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "support/error.h"
#include "testutil.h"

namespace cellport {
namespace {

using marvel::AnalysisResult;
using serve::Priority;
using serve::ServeBroker;
using serve::ServeConfig;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeStatus;
using serve::TenantConfig;

constexpr sim::SimTime kFarDeadline = 10'000'000'000;  // 10 s

using testutil::expect_bitwise_equal;

template <typename T>
std::vector<T> prefix(const std::vector<T>& v, std::size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(n, v.size()))};
}

bool has_record(const AnalysisResult& r, const std::string& rec) {
  return std::find(r.degraded.begin(), r.degraded.end(), rec) !=
         r.degraded.end();
}

class Serve : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_serve_models.bin", 0);
    dataset_ = new marvel::Dataset(marvel::make_dataset(8, 99));
  }
  static void TearDownTestSuite() {
    delete library_;
    delete dataset_;
  }
  static const std::string& library_path() { return library_->path(); }
  static const img::SicEncoded& image(std::size_t i) {
    return dataset_->images[i % dataset_->images.size()];
  }

  /// Per-call reference on a fresh, unbrokered machine.
  static AnalysisResult reference(std::size_t i, marvel::Scenario s =
                                                    marvel::Scenario::kMultiSPE) {
    sim::Machine machine;
    marvel::CellEngine engine(machine, library_path(), s);
    return engine.analyze(image(i));
  }

  static std::uint64_t counter(sim::Machine& m, const std::string& name) {
    const auto& counters = m.metrics().counters();
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second->value();
  }

  /// The accounting invariant: every response is terminal, the stats
  /// tally to the response set, and the serve.* counters agree with the
  /// stats — globally and per tenant.
  static void expect_accounting(sim::Machine& m, const ServeBroker& broker,
                                const std::vector<ServeResponse>& rs) {
    const serve::ServeStats& s = broker.stats();
    EXPECT_EQ(s.admitted, s.ok + s.degraded + s.shed + s.deadline_missed);
    EXPECT_EQ(s.admitted + s.rejected, rs.size());
    std::uint64_t ok = 0, degraded = 0, shed = 0, missed = 0, rejected = 0;
    for (const ServeResponse& r : rs) {
      EXPECT_TRUE(serve::is_terminal(r.status));
      switch (r.status) {
        case ServeStatus::kOk: ++ok; break;
        case ServeStatus::kDegraded: ++degraded; break;
        case ServeStatus::kShed: ++shed; break;
        case ServeStatus::kDeadlineMissed: ++missed; break;
        case ServeStatus::kRejected: ++rejected; break;
        case ServeStatus::kQueued: break;
      }
    }
    EXPECT_EQ(s.ok, ok);
    EXPECT_EQ(s.degraded, degraded);
    EXPECT_EQ(s.shed, shed);
    EXPECT_EQ(s.deadline_missed, missed);
    EXPECT_EQ(s.rejected, rejected);
    EXPECT_EQ(counter(m, "serve.admitted"), s.admitted);
    EXPECT_EQ(counter(m, "serve.rejected"), s.rejected);
    EXPECT_EQ(counter(m, "serve.ok"), s.ok);
    EXPECT_EQ(counter(m, "serve.degraded"), s.degraded);
    EXPECT_EQ(counter(m, "serve.shed"), s.shed);
    EXPECT_EQ(counter(m, "serve.deadline_missed"), s.deadline_missed);
    std::uint64_t t_admitted = 0;
    for (std::size_t t = 0; t < s.tenants.size(); ++t) {
      const serve::TenantStats& ts = s.tenants[t];
      EXPECT_EQ(ts.admitted,
                ts.ok + ts.degraded + ts.shed + ts.deadline_missed);
      const std::string p = "serve.t" + std::to_string(t) + ".";
      EXPECT_EQ(counter(m, p + "admitted"), ts.admitted);
      EXPECT_EQ(counter(m, p + "rejected"), ts.rejected);
      t_admitted += ts.admitted;
    }
    EXPECT_EQ(t_admitted, s.admitted);
    // Nothing left queued: the depth gauges read zero after run().
    EXPECT_EQ(m.metrics().gauge("serve.queue_depth").value(), 0.0);
  }

  static testutil::TempLibrary* library_;
  static marvel::Dataset* dataset_;
};

testutil::TempLibrary* Serve::library_ = nullptr;
marvel::Dataset* Serve::dataset_ = nullptr;

// ---- config validation ----

TEST_F(Serve, RejectsDegenerateConfigs) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  ServeConfig no_tenants;
  EXPECT_THROW(ServeBroker(engine, no_tenants), cellport::ConfigError);

  ServeConfig bad_batch;
  bad_batch.tenants = {{"a", 1, 8}};
  bad_batch.batch = 0;
  EXPECT_THROW(ServeBroker(engine, bad_batch), cellport::ConfigError);

  ServeConfig ok;
  ok.tenants = {{"a", 1, 8}};
  ServeBroker broker(engine, ok);
  ServeRequest r;
  r.tenant = 3;  // unknown
  r.image = image(0);
  EXPECT_THROW(broker.run({r}), cellport::ConfigError);
}

// ---- light load: everything ok, bit-exact, fully accounted ----

TEST_F(Serve, LightLoadServesEveryRequestOkAndBitExact) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  ServeConfig cfg;
  cfg.tenants = {{"alpha", 1, 16}};
  cfg.batch = 4;
  cfg.cycle_windows = 1;
  cfg.default_deadline_ns = kFarDeadline;
  ServeBroker broker(engine, cfg);

  std::vector<ServeRequest> reqs;
  for (std::size_t i = 0; i < 6; ++i) {
    ServeRequest r;
    r.tenant = 0;
    r.image = image(i);
    r.arrival_ns = 0;
    reqs.push_back(r);
  }
  std::vector<ServeResponse> rs = broker.run(reqs);
  ASSERT_EQ(rs.size(), 6u);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].status, ServeStatus::kOk);
    EXPECT_TRUE(rs[i].served);
    EXPECT_EQ(rs[i].degrade_level, 0);
    EXPECT_TRUE(rs[i].result.degraded.empty());
    expect_bitwise_equal(rs[i].result, reference(i));
    EXPECT_GE(rs[i].start_ns, rs[i].arrival_ns);
    EXPECT_GT(rs[i].done_ns, rs[i].start_ns);
  }
  EXPECT_EQ(broker.stats().ok, 6u);
  EXPECT_EQ(broker.stats().max_degrade_level, 0);
  expect_accounting(machine, broker, rs);
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());

  // The machine report carries the Serve section next to Guard.
  sim::MachineReport report = sim::snapshot(machine);
  EXPECT_TRUE(report.serve.active());
  EXPECT_EQ(report.serve.admitted, 6u);
  EXPECT_EQ(report.serve.ok, 6u);
  ASSERT_EQ(report.serve.tenants.size(), 1u);
  EXPECT_EQ(report.serve.tenants[0].admitted, 6u);
  std::string text = sim::format_report(report);
  EXPECT_NE(text.find("Serve: 6 admitted"), std::string::npos);
  EXPECT_NE(text.find("tenant 0:"), std::string::npos);
}

// ---- admission: bounded tenant queues ----

TEST_F(Serve, TenantQueueOverflowRejectsOnlyTheNoisyTenant) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  ServeConfig cfg;
  cfg.tenants = {{"noisy", 1, 2}, {"quiet", 1, 8}};
  cfg.batch = 4;
  cfg.cycle_windows = 1;
  cfg.default_deadline_ns = kFarDeadline;
  ServeBroker broker(engine, cfg);

  std::vector<ServeRequest> reqs;
  for (std::size_t i = 0; i < 5; ++i) {  // three beyond the cap of 2
    ServeRequest r;
    r.tenant = 0;
    r.image = image(i);
    reqs.push_back(r);
  }
  ServeRequest quiet;
  quiet.tenant = 1;
  quiet.image = image(5);
  reqs.push_back(quiet);

  std::vector<ServeResponse> rs = broker.run(reqs);
  ASSERT_EQ(rs.size(), 6u);
  EXPECT_EQ(rs[0].status, ServeStatus::kOk);
  EXPECT_EQ(rs[1].status, ServeStatus::kOk);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(rs[i].status, ServeStatus::kRejected);
    EXPECT_FALSE(rs[i].served);
  }
  EXPECT_EQ(rs[5].status, ServeStatus::kOk);  // back-pressure is scoped
  EXPECT_EQ(broker.stats().tenants[0].rejected, 3u);
  EXPECT_EQ(broker.stats().tenants[1].rejected, 0u);
  expect_accounting(machine, broker, rs);
}

// ---- the degrade ladder ----

TEST_F(Serve, ConceptClampDegradesToTheBitExactPrefix) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  ServeConfig cfg;
  cfg.tenants = {{"alpha", 1, 16}};
  cfg.batch = 4;
  cfg.cycle_windows = 1;
  cfg.global_budget = 8;
  cfg.default_deadline_ns = kFarDeadline;
  ServeBroker broker(engine, cfg);
  const auto half = static_cast<std::size_t>(broker.level_max_models(1));
  EXPECT_GE(half, 1u);

  // Five queued against a budget of eight: pressure 0.625 sits between
  // the concept-clamp threshold (0.5) and minimal (0.85) — the first
  // cycle runs at level 1, the leftover request at level 0.
  std::vector<ServeRequest> reqs;
  for (std::size_t i = 0; i < 5; ++i) {
    ServeRequest r;
    r.tenant = 0;
    r.image = image(i);
    reqs.push_back(r);
  }
  std::vector<ServeResponse> rs = broker.run(reqs);
  ASSERT_EQ(rs.size(), 5u);
  EXPECT_EQ(broker.stats().degraded, 4u);
  EXPECT_EQ(broker.stats().ok, 1u);
  EXPECT_EQ(broker.stats().max_degrade_level, 1);
  int degraded_seen = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    AnalysisResult want = reference(i);
    if (rs[i].status == ServeStatus::kOk) {
      expect_bitwise_equal(rs[i].result, want);
      continue;
    }
    ASSERT_EQ(rs[i].status, ServeStatus::kDegraded);
    ++degraded_seen;
    EXPECT_EQ(rs[i].degrade_level, 1);
    EXPECT_TRUE(has_record(rs[i].result,
                           "serve:concepts=" + std::to_string(half)));
    // Degraded detect is the bit-exact prefix of full service; the
    // feature vectors themselves stay complete and identical.
    EXPECT_EQ(rs[i].result.color_histogram.values,
              want.color_histogram.values);
    EXPECT_EQ(rs[i].result.texture.values, want.texture.values);
    EXPECT_EQ(rs[i].result.ch_detect.values,
              prefix(want.ch_detect.values, half));
    EXPECT_EQ(rs[i].result.cc_detect.values,
              prefix(want.cc_detect.values, half));
    EXPECT_EQ(rs[i].result.tx_detect.values,
              prefix(want.tx_detect.values, half));
    EXPECT_EQ(rs[i].result.eh_detect.values,
              prefix(want.eh_detect.values, half));
  }
  EXPECT_EQ(degraded_seen, 4);
  expect_accounting(machine, broker, rs);
}

TEST_F(Serve, OverloadShedsLowestPriorityAndNeverHigh) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  ServeConfig cfg;
  cfg.tenants = {{"alpha", 1, 32}};
  cfg.batch = 4;
  cfg.cycle_windows = 1;
  cfg.global_budget = 4;
  cfg.default_deadline_ns = kFarDeadline;
  ServeBroker broker(engine, cfg);

  // Four kLow fill the budget; two kHigh then evict two of them; two
  // trailing kLow shed themselves (nothing queued has less claim).
  std::vector<ServeRequest> reqs;
  for (std::size_t i = 0; i < 4; ++i) {
    ServeRequest r;
    r.tenant = 0;
    r.priority = Priority::kLow;
    r.image = image(i);
    reqs.push_back(r);
  }
  for (std::size_t i = 4; i < 6; ++i) {
    ServeRequest r;
    r.tenant = 0;
    r.priority = Priority::kHigh;
    r.image = image(i);
    reqs.push_back(r);
  }
  for (std::size_t i = 6; i < 8; ++i) {
    ServeRequest r;
    r.tenant = 0;
    r.priority = Priority::kLow;
    r.image = image(i);
    reqs.push_back(r);
  }
  std::vector<ServeResponse> rs = broker.run(reqs);
  ASSERT_EQ(rs.size(), 8u);
  EXPECT_EQ(broker.stats().shed, 4u);
  EXPECT_EQ(broker.stats().rejected, 0u);  // shed before reject
  sim::SimTime first_dispatch = kFarDeadline;
  for (const ServeResponse& r : rs) {
    if (r.served) first_dispatch = std::min(first_dispatch, r.start_ns);
    if (r.status == ServeStatus::kShed) {
      EXPECT_EQ(r.priority, Priority::kLow);
      EXPECT_FALSE(r.served);
    }
  }
  // Both kHigh requests survive, served in the first cycle — and the
  // budget squeeze ran that cycle at minimal detect, not rejection.
  for (std::size_t i = 4; i < 6; ++i) {
    EXPECT_NE(rs[i].status, ServeStatus::kShed);
    EXPECT_TRUE(rs[i].served);
    EXPECT_EQ(rs[i].start_ns, first_dispatch);
  }
  EXPECT_EQ(broker.stats().max_degrade_level, 2);
  for (const ServeResponse& r : rs) {
    if (r.served && r.degrade_level == 2) {
      EXPECT_TRUE(has_record(r.result, "serve:minimal-detect"));
      EXPECT_EQ(r.result.ch_detect.values.size(), 1u);
    }
  }
  expect_accounting(machine, broker, rs);
}

// ---- scheduling: WRR across tenants, no starvation ----

TEST_F(Serve, WeightedRoundRobinSharesTheFirstCycleByWeight) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  ServeConfig cfg;
  cfg.tenants = {{"heavy", 3, 16}, {"light", 1, 16}};
  cfg.batch = 4;
  cfg.cycle_windows = 1;
  cfg.default_deadline_ns = kFarDeadline;
  ServeBroker broker(engine, cfg);

  std::vector<ServeRequest> reqs;
  for (std::size_t i = 0; i < 6; ++i) {
    ServeRequest r;
    r.tenant = 0;
    r.image = image(i);
    reqs.push_back(r);
    ServeRequest q;
    q.tenant = 1;
    q.image = image(i + 1);
    reqs.push_back(q);
  }
  std::vector<ServeResponse> rs = broker.run(reqs);
  ASSERT_EQ(rs.size(), 12u);
  sim::SimTime first_dispatch = kFarDeadline;
  for (const ServeResponse& r : rs) {
    ASSERT_TRUE(r.served);
    first_dispatch = std::min(first_dispatch, r.start_ns);
  }
  int heavy_first = 0, light_first = 0;
  for (const ServeResponse& r : rs) {
    if (r.start_ns != first_dispatch) continue;
    (r.tenant == 0 ? heavy_first : light_first)++;
  }
  // Weight 3 vs 1: the four-slot first cycle splits 3/1 — and the
  // light tenant is in it (a flood never starves a neighbour).
  EXPECT_EQ(heavy_first, 3);
  EXPECT_EQ(light_first, 1);
  EXPECT_EQ(broker.stats().ok + broker.stats().degraded, 12u);
  expect_accounting(machine, broker, rs);
}

// ---- deadlines ----

TEST_F(Serve, QueuedRequestPastItsDeadlineExpiresUnserviced) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  ServeConfig cfg;
  cfg.tenants = {{"alpha", 1, 16}};
  cfg.batch = 1;
  cfg.cycle_windows = 1;
  cfg.default_deadline_ns = kFarDeadline;
  ServeBroker broker(engine, cfg);

  ServeRequest urgent;  // served first by class priority
  urgent.tenant = 0;
  urgent.priority = Priority::kHigh;
  urgent.image = image(0);
  ServeRequest doomed;  // a deadline no schedule can make
  doomed.tenant = 0;
  doomed.priority = Priority::kLow;
  doomed.image = image(1);
  doomed.deadline_ns = 1000;  // 1 us

  std::vector<ServeResponse> rs = broker.run({urgent, doomed});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].status, ServeStatus::kOk);
  EXPECT_EQ(rs[1].status, ServeStatus::kDeadlineMissed);
  EXPECT_FALSE(rs[1].served);
  EXPECT_EQ(rs[1].start_ns, 0);  // never dispatched
  EXPECT_EQ(broker.stats().deadline_missed, 1u);
  expect_accounting(machine, broker, rs);
}

// ---- quarantine feeds back into the budget ----

TEST_F(Serve, EffectiveBudgetScalesWithHealthySpeFraction) {
  ServeConfig cfg;
  cfg.tenants = {{"a", 1, 8}};
  cfg.global_budget = 32;
  serve::AdmissionController adm(cfg);
  EXPECT_EQ(adm.effective_budget(8, 0), 32u);
  EXPECT_EQ(adm.effective_budget(8, 2), 24u);
  EXPECT_EQ(adm.effective_budget(8, 7), 4u);
  // Fully quarantined still serves one request at a time (PPE fallback).
  EXPECT_EQ(adm.effective_budget(8, 8), 1u);
}

TEST_F(Serve, QuarantinedSpesShrinkTheBudgetAndShedExcess) {
  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE,
                            kernels::kDoubleBuffer, false, guard);
  ASSERT_NE(engine.health(), nullptr);
  // Quarantine the four SPEs the kMultiSPE scenario leaves idle: the
  // budget halves while service itself stays healthy.
  for (int spe = 4; spe < 8; ++spe) {
    for (int i = 0; i < 8 && !engine.health()->quarantined(spe); ++i) {
      if (engine.health()->record_fault(spe) ==
          guard::SpeHealth::Action::kRestart) {
        engine.health()->note_restarted(spe);
      }
    }
    ASSERT_TRUE(engine.health()->quarantined(spe));
  }

  ServeConfig cfg;
  cfg.tenants = {{"alpha", 1, 16}};
  cfg.batch = 4;
  cfg.cycle_windows = 1;
  cfg.global_budget = 8;
  cfg.default_deadline_ns = kFarDeadline;
  ServeBroker broker(engine, cfg);

  std::vector<ServeRequest> reqs;
  for (std::size_t i = 0; i < 8; ++i) {
    ServeRequest r;
    r.tenant = 0;
    r.image = image(i);
    reqs.push_back(r);
  }
  std::vector<ServeResponse> rs = broker.run(reqs);
  ASSERT_EQ(rs.size(), 8u);
  // Half the SPEs quarantined -> the effective budget is 8 * 4/8 = 4:
  // four requests queue, four are shed at admission.
  EXPECT_EQ(machine.metrics().gauge("serve.effective_budget").value(),
            4.0);
  EXPECT_EQ(broker.stats().shed, 4u);
  // Four queued against a budget of four is full pressure: the squeeze
  // also drives the ladder to minimal detect. Results are still the
  // bit-exact prefix of full service.
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (!rs[i].served) continue;
    AnalysisResult want = reference(i);
    EXPECT_EQ(rs[i].result.color_histogram.values,
              want.color_histogram.values);
    EXPECT_EQ(rs[i].result.ch_detect.values,
              prefix(want.ch_detect.values,
                     rs[i].result.ch_detect.values.size()));
  }
  expect_accounting(machine, broker, rs);
}

// ---- probe attribution of the broker itself ----

/// Every finished trace partitions; broker cycles show up as "serve"
/// traces whose queue time lives in the serve_queue phase.
class ServeProbeSink : public probe::ProbeSink {
 public:
  void on_request(const probe::RequestTrace& rt) override {
    double sum = 0;
    for (const auto& [phase, ns] : rt.exclusive_ns()) sum += ns;
    EXPECT_NEAR(sum, rt.elapsed_ns(),
                1e-6 * std::max(1.0, rt.elapsed_ns()));
    if (rt.label() == "serve") {
      ++serve_traces;
      // Below the kOther root: exactly the serve_queue span.
      int children = 0;
      for (const auto& span : rt.spans()) {
        if (span.parent < 0) continue;
        ++children;
        EXPECT_EQ(span.phase, probe::Phase::kServeQueue);
      }
      EXPECT_EQ(children, 1);
    } else {
      ++engine_traces;
    }
  }
  int serve_traces = 0;
  int engine_traces = 0;
};

TEST_F(Serve, BrokerCyclesAttributeQueueTimeToTheServeQueuePhase) {
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kMultiSPE);
  ServeProbeSink sink;
  engine.set_probe(&sink);
  ServeConfig cfg;
  cfg.tenants = {{"alpha", 1, 16}};
  cfg.batch = 2;
  cfg.cycle_windows = 1;
  cfg.default_deadline_ns = kFarDeadline;
  ServeBroker broker(engine, cfg);

  std::vector<ServeRequest> reqs;
  for (std::size_t i = 0; i < 4; ++i) {
    ServeRequest r;
    r.tenant = 0;
    r.image = image(i);
    reqs.push_back(r);
  }
  std::vector<ServeResponse> rs = broker.run(reqs);
  EXPECT_EQ(static_cast<std::uint64_t>(sink.serve_traces),
            broker.stats().cycles);
  EXPECT_GT(sink.engine_traces, 0);  // the service runs trace too
  expect_accounting(machine, broker, rs);
}

// ---- deadline expiry mid-shard-reduce under guard ----

TEST_F(Serve, DeadlineMissMidShardReduceDoesNotPoisonTheNextWindow) {
  std::vector<AnalysisResult> want;
  for (std::size_t i = 0; i < 4; ++i) {
    want.push_back(reference(i, marvel::Scenario::kSharded));
  }

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 2e9;  // patient: slowness is not a fault
  marvel::CellEngine engine(machine, library_path(),
                            marvel::Scenario::kSharded,
                            kernels::kDoubleBuffer, false, guard);
  // Stall the first DMA wait on a shard SPE by 500 ms: the first
  // window's shard-reduce lands far past its 80 ms deadline.
  sim::FaultInjection f;
  f.slow_after = 0;
  f.slow_ns = 500'000'000;
  machine.spe(0).inject_fault(f);

  ServeConfig cfg;
  cfg.tenants = {{"alpha", 1, 16}};
  cfg.batch = 2;
  cfg.cycle_windows = 1;
  cfg.default_deadline_ns = kFarDeadline;
  ServeBroker broker(engine, cfg);

  std::vector<ServeRequest> reqs;
  for (std::size_t i = 0; i < 4; ++i) {
    ServeRequest r;
    r.tenant = 0;
    r.image = image(i);
    // EDF picks the tight-deadline pair for the first (stalled) window.
    r.deadline_ns = i < 2 ? 80'000'000 : kFarDeadline;
    reqs.push_back(r);
  }
  std::vector<ServeResponse> rs = broker.run(reqs);
  ASSERT_EQ(rs.size(), 4u);

  // The stalled window: served to completion, reported late — not
  // dropped, not retried into a different answer.
  int missed = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(rs[i].served);
    if (rs[i].status == ServeStatus::kDeadlineMissed) {
      ++missed;
      EXPECT_TRUE(has_record(rs[i].result, "serve:deadline_missed"));
    }
    expect_bitwise_equal(rs[i].result, want[i]);
  }
  EXPECT_GE(missed, 1);
  // The next window is untouched: on time, full service, bit-exact —
  // the shard reducer carries no poison across windows.
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(rs[i].status, ServeStatus::kOk);
    EXPECT_TRUE(rs[i].result.degraded.empty());
    expect_bitwise_equal(rs[i].result, want[i]);
  }
  EXPECT_EQ(broker.stats().deadline_missed,
            static_cast<std::uint64_t>(missed));
  expect_accounting(machine, broker, rs);
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

}  // namespace
}  // namespace cellport
