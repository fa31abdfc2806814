// cellguard tests: deadlines, retry/backoff, quarantine, and graceful
// PPE fallback. The fault model is sim::FaultInjection — scheduled
// misbehavior counted in deterministic simulated events — so every test
// here replays identically, hangs included: a "hung" SPE still finishes
// functionally, only its completion timestamp is kNeverNs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/faults.h"
#include "guard/guarded_interface.h"
#include "guard/health.h"
#include "guard/policy.h"
#include "img/codec.h"
#include "marvel/cell_engine.h"
#include "marvel/reference_engine.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "port/taskpool.h"
#include "sim/invariants.h"
#include "sim/machine.h"
#include "sim/spu_mfcio.h"
#include "sim/time.h"
#include "support/aligned.h"
#include "support/error.h"
#include "testutil.h"

namespace cellport {
namespace {

using check::FaultMsg;

/// Minimal well-behaved kernel with real DMA traffic: fetches 64 bytes
/// from msg->ea and returns their sum. Gives the injected DMA faults
/// something to hit.
port::KernelModule& sum_module() {
  static port::KernelModule mod("guard_sum", 4096);
  static bool init = (mod.add_function(1, +[](std::uint64_t ea) {
                        auto* msg = reinterpret_cast<FaultMsg*>(ea);
                        auto* buf = static_cast<std::uint8_t*>(
                            sim::spu_ls_alloc(64, 16));
                        sim::mfc_get(buf, msg->ea, 64, 1);
                        sim::mfc_write_tag_mask(1u << 1);
                        sim::mfc_read_tag_status_all();
                        int sum = 0;
                        for (int i = 0; i < 64; ++i) sum += buf[i];
                        return sum;
                      }),
                      true);
  (void)init;
  return mod;
}

class Guard : public ::testing::Test {
 protected:
  void SetUp() override { sim::InvariantChannel::instance().drain(); }
  void TearDown() override { sim::InvariantChannel::instance().drain(); }

  static std::uint64_t counter(sim::Machine& m, const char* name) {
    return m.metrics().counter(name).value();
  }
};

// ---- the Wait(timeout) regression (the deadline primitive) ----

TEST_F(Guard, WaitHonorsItsTimeoutInSimulatedTime) {
  // Regression: Wait(timeout) used to ignore its argument and block
  // forever. With a hang injected, it must advance the PPE exactly to
  // the deadline and throw — never wedge the host.
  sim::Machine machine;
  port::SPEInterface iface(sum_module(), 0);
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = false;
  machine.spe(0).inject_fault(f);

  cellport::AlignedBuffer<std::uint8_t> host(64);
  for (std::size_t i = 0; i < 64; ++i) host[i] = 1;
  port::WrappedMessage<FaultMsg> msg;
  msg->ea = reinterpret_cast<std::uint64_t>(host.data());

  double t0 = machine.ppe().now_ns();
  iface.Send(1, msg.ea());
  try {
    iface.Wait(5);  // 5 simulated milliseconds
    FAIL() << "expected a TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  // The wait charged exactly the deadline (plus the send's own cost).
  EXPECT_GE(machine.ppe().now_ns(), t0 + 5e6);
  EXPECT_LT(machine.ppe().now_ns(), t0 + 6e6);
  EXPECT_TRUE(iface.stale());

  // The abandoned completion is reclaimed on the next Send; the one-shot
  // hang is spent, so the same interface works again.
  EXPECT_EQ(iface.SendAndWait(1, msg.ea()), 64);
  EXPECT_FALSE(iface.stale());
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

TEST_F(Guard, WaitForReturnsFalseOnTimeout) {
  sim::Machine machine;
  port::SPEInterface iface(sum_module(), 0);
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = false;
  machine.spe(0).inject_fault(f);

  cellport::AlignedBuffer<std::uint8_t> host(64);
  port::WrappedMessage<FaultMsg> msg;
  msg->ea = reinterpret_cast<std::uint64_t>(host.data());

  iface.Send(1, msg.ea());
  int result = -1;
  EXPECT_FALSE(iface.WaitFor(2e6, &result));
  EXPECT_TRUE(iface.stale());
  iface.reclaim();
  EXPECT_FALSE(iface.stale());
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

// ---- GuardedInterface: retry, restart, quarantine ----

TEST_F(Guard, TransientDmaFaultIsRetriedOnASpareSpe) {
  // Same call twice: clean, and with one transient DMA fault that forces
  // one retry. The faulted command aborts before any bytes move, and the
  // retry re-fetches what the failed attempt never got — so the EIB
  // totals must come out identical. Anything more means retries
  // double-count traffic; anything less means a transfer was lost.
  auto run = [](bool faulted) {
    sim::Machine machine;
    guard::RetryPolicy policy;
    policy.deadline_ns = 10e6;
    guard::SpeHealth health(machine, policy);
    guard::GuardedInterface g(health, sum_module(), 0, {1});
    if (faulted) {
      sim::FaultInjection f;
      f.dma_error_after = 0;
      machine.spe(0).inject_fault(f);
    }

    cellport::AlignedBuffer<std::uint8_t> host(64);
    for (std::size_t i = 0; i < 64; ++i) host[i] = 1;
    port::WrappedMessage<FaultMsg> msg;
    msg->ea = reinterpret_cast<std::uint64_t>(host.data());

    std::uint64_t before = machine.eib().total_bytes();
    guard::GuardedInterface::Result r = g.Call(1, msg.ea());
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value, 64);
    EXPECT_EQ(r.attempts, faulted ? 2 : 1);
    // A retry migrates away from the SPE that faulted.
    EXPECT_EQ(g.spe(), faulted ? 1 : 0);
    EXPECT_EQ(counter(machine, "guard.retries"), faulted ? 1u : 0u);
    EXPECT_EQ(counter(machine, "guard.timeouts"), 0u);
    EXPECT_EQ(health.quarantined_count(), 0);
    EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
    return machine.eib().total_bytes() - before;
  };

  const std::uint64_t clean = run(false);
  EXPECT_GT(clean, 0u);
  EXPECT_EQ(run(true), clean);
}

TEST_F(Guard, HungCallTimesOutBacksOffAndRetries) {
  sim::Machine machine;
  guard::RetryPolicy policy;
  policy.deadline_ns = 10e6;
  guard::SpeHealth health(machine, policy);
  guard::GuardedInterface g(health, sum_module(), 0, {1});
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = false;
  machine.spe(0).inject_fault(f);

  cellport::AlignedBuffer<std::uint8_t> host(64);
  for (std::size_t i = 0; i < 64; ++i) host[i] = 1;
  port::WrappedMessage<FaultMsg> msg;
  msg->ea = reinterpret_cast<std::uint64_t>(host.data());

  double t0 = machine.ppe().now_ns();
  guard::GuardedInterface::Result r = g.Call(1, msg.ea());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 64);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(counter(machine, "guard.timeouts"), 1u);
  EXPECT_EQ(counter(machine, "guard.retries"), 1u);
  // The failed attempt charged its full deadline plus the backoff.
  EXPECT_GE(machine.ppe().now_ns(),
            t0 + policy.deadline_ns + policy.backoff_base_ns);
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

TEST_F(Guard, PersistentFaultRestartsOnceThenQuarantines) {
  sim::Machine machine;
  guard::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.deadline_ns = 10e6;
  policy.quarantine_after = 2;
  guard::SpeHealth health(machine, policy);
  guard::GuardedInterface g(health, sum_module(), 0);  // no spares
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = true;
  f.clears_on_restart = false;  // a restart cannot heal this SPE
  machine.spe(0).inject_fault(f);

  cellport::AlignedBuffer<std::uint8_t> host(64);
  port::WrappedMessage<FaultMsg> msg;
  msg->ea = reinterpret_cast<std::uint64_t>(host.data());

  guard::GuardedInterface::Result r = g.Call(1, msg.ea());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 4);
  EXPECT_EQ(counter(machine, "guard.restarts"), 1u);
  EXPECT_EQ(counter(machine, "guard.quarantined_spes"), 1u);
  EXPECT_TRUE(health.quarantined(0));

  // Every candidate is quarantined: the next call fails fast with an
  // actionable verdict instead of burning attempts.
  guard::GuardedInterface::Result again = g.Call(1, msg.ea());
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.attempts, 1);
  EXPECT_NE(again.error.find("no healthy SPE"), std::string::npos);
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

TEST_F(Guard, RestartHealsARestartableFault) {
  sim::Machine machine;
  guard::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.deadline_ns = 10e6;
  policy.quarantine_after = 2;
  guard::SpeHealth health(machine, policy);
  guard::GuardedInterface g(health, sum_module(), 0);  // no spares
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = true;  // hangs forever — until the context restart
  machine.spe(0).inject_fault(f);

  cellport::AlignedBuffer<std::uint8_t> host(64);
  for (std::size_t i = 0; i < 64; ++i) host[i] = 1;
  port::WrappedMessage<FaultMsg> msg;
  msg->ea = reinterpret_cast<std::uint64_t>(host.data());

  guard::GuardedInterface::Result r = g.Call(1, msg.ea());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 64);
  EXPECT_EQ(r.attempts, 3);  // two timeouts, restart, then success
  EXPECT_EQ(counter(machine, "guard.restarts"), 1u);
  EXPECT_EQ(counter(machine, "guard.quarantined_spes"), 0u);
  EXPECT_FALSE(health.quarantined(0));
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());
}

// ---- TaskPool: a hung worker fails its task, shutdown completes ----

TEST_F(Guard, PoolWithHungWorkerShutsDownCleanly) {
  // Shutting down a pool whose worker is hung must not hang the host: the
  // destructor's shutdown path sees the never-delivered completion at
  // once, fails the task and tears the worker down.
  sim::Machine machine;
  cellport::AlignedBuffer<std::uint8_t> host(64);
  port::WrappedMessage<FaultMsg> msg;
  port::TaskPool pool(machine, 1);
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = true;
  f.clears_on_restart = false;
  machine.spe(0).inject_fault(f);

  msg->ea = reinterpret_cast<std::uint64_t>(host.data());
  port::TaskPool::TaskId id = pool.submit(sum_module(), 1, msg.ea());
  pool.shutdown();  // no wait_all first: the destructor's path runs it
  EXPECT_TRUE(pool.task_failed(id));
  EXPECT_FALSE(pool.task_error(id).empty());
  auto stats = pool.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.faults, 1u);
  sim::InvariantChannel::instance().drain();
}

// ---- CellEngine: graceful degradation to the PPE scalar path ----

class GuardedEngine : public Guard {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_guard_models.bin",
                                         /*extra_concepts=*/2);
  }
  static void TearDownTestSuite() {
    delete library_;
    library_ = nullptr;
  }
  static testutil::TempLibrary* library_;

  static guard::GuardPolicy guarded_policy() {
    guard::GuardPolicy gp;
    gp.enabled = true;
    gp.retry.deadline_ns = 500e6;  // the cellcheck guard deadline
    return gp;
  }
};

testutil::TempLibrary* GuardedEngine::library_ = nullptr;

TEST_F(GuardedEngine, FaultFreeGuardedRunIsBitIdenticalAndCheap) {
  img::SicEncoded image = img::sic_encode(testutil::seeded_image(2026));

  sim::Machine plain;
  marvel::CellEngine unguarded(plain, library_->path(),
                               marvel::Scenario::kMultiSPE);
  double u0 = plain.ppe().now_ns();
  marvel::AnalysisResult a = unguarded.analyze(image);
  double unguarded_ns = plain.ppe().now_ns() - u0;

  sim::Machine machine;
  marvel::CellEngine engine(machine, library_->path(),
                            marvel::Scenario::kMultiSPE,
                            kernels::kDoubleBuffer, false,
                            guarded_policy());
  double g0 = machine.ppe().now_ns();
  marvel::AnalysisResult b = engine.analyze(image);
  double guarded_ns = machine.ppe().now_ns() - g0;

  EXPECT_TRUE(b.degraded.empty());
  EXPECT_EQ(a.color_histogram.values, b.color_histogram.values);
  EXPECT_EQ(a.color_correlogram.values, b.color_correlogram.values);
  EXPECT_EQ(a.texture.values, b.texture.values);
  EXPECT_EQ(a.edge_histogram.values, b.edge_histogram.values);
  EXPECT_EQ(a.cc_detect.values, b.cc_detect.values);
  // Guarded and plain lanes share every call site: zero overhead.
  EXPECT_EQ(guarded_ns, unguarded_ns);
  EXPECT_EQ(counter(machine, "guard.retries"), 0u);
  EXPECT_EQ(counter(machine, "guard.ppe_fallbacks"), 0u);
}

TEST_F(GuardedEngine, BrokenSpeDegradesOneKernelToThePpe) {
  // 5 SPEs, all pinned, no spares: when the texture SPE breaks for good,
  // the engine must fall back to the PPE scalar path for that kernel —
  // and say so — rather than fail the whole analysis.
  img::SicEncoded image = img::sic_encode(testutil::seeded_image(2027));
  sim::Machine machine(sim::Machine::Config{5});
  marvel::CellEngine engine(machine, library_->path(),
                            marvel::Scenario::kSingleSPE,
                            kernels::kDoubleBuffer, false,
                            guarded_policy());
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = true;
  f.clears_on_restart = false;
  machine.spe(2).inject_fault(f);  // SPE 2 hosts the texture kernel

  marvel::AnalysisResult r = engine.analyze(image);
  ASSERT_EQ(r.degraded.size(), 1u);
  EXPECT_EQ(r.degraded[0], "extract:texture");
  EXPECT_EQ(counter(machine, "guard.ppe_fallbacks"), 1u);
  EXPECT_GE(counter(machine, "guard.timeouts"), 1u);

  // The degraded result still matches the reference implementation.
  marvel::ReferenceEngine ref(sim::cell_ppe(), library_->path());
  testutil::expect_feature_equivalent(r, ref.analyze(image));

  // A second image strikes the same SPE again; having already spent its
  // one restart, it is now quarantined.
  marvel::AnalysisResult r2 = engine.analyze(image);
  ASSERT_EQ(r2.degraded.size(), 1u);
  EXPECT_EQ(r2.degraded[0], "extract:texture");
  ASSERT_NE(engine.health(), nullptr);
  EXPECT_TRUE(engine.health()->quarantined(2));
  EXPECT_EQ(counter(machine, "guard.quarantined_spes"), 1u);
  EXPECT_EQ(counter(machine, "guard.ppe_fallbacks"), 2u);
}

TEST_F(GuardedEngine, SpareSpeAbsorbsAPersistentFaultWithoutDegrading) {
  // Same broken SPE, but with 8 SPEs the pinned set leaves spares 5..7:
  // the guard migrates the texture kernel instead of degrading it.
  img::SicEncoded image = img::sic_encode(testutil::seeded_image(2028));
  sim::Machine machine;
  marvel::CellEngine engine(machine, library_->path(),
                            marvel::Scenario::kSingleSPE,
                            kernels::kDoubleBuffer, false,
                            guarded_policy());
  sim::FaultInjection f;
  f.hang_after = 0;
  f.hang_sticky = true;
  f.clears_on_restart = false;
  machine.spe(2).inject_fault(f);

  marvel::AnalysisResult r = engine.analyze(image);
  EXPECT_TRUE(r.degraded.empty());
  EXPECT_GE(counter(machine, "guard.retries"), 1u);
  EXPECT_EQ(counter(machine, "guard.ppe_fallbacks"), 0u);

  marvel::ReferenceEngine ref(sim::cell_ppe(), library_->path());
  testutil::expect_feature_equivalent(r, ref.analyze(image));
}

// ---- lanes: guarded and plain lanes share every call site ----

enum class Strategy { kPerFeature, kFused, kBalanced };

void set_strategy(marvel::CellEngine& engine, Strategy s) {
  engine.set_fused(s == Strategy::kFused);
  engine.set_balanced(s == Strategy::kBalanced);
}

std::string case_label(marvel::Scenario scenario, Strategy strategy) {
  return "scenario " + std::to_string(static_cast<int>(scenario)) +
         " strategy " + std::to_string(static_cast<int>(strategy));
}

using testutil::expect_bitwise_equal;

constexpr marvel::Scenario kScenarios[] = {
    marvel::Scenario::kSingleSPE, marvel::Scenario::kMultiSPE,
    marvel::Scenario::kMultiSPE2, marvel::Scenario::kSharded};
constexpr Strategy kStrategies[] = {Strategy::kPerFeature, Strategy::kFused,
                                    Strategy::kBalanced};

TEST_F(GuardedEngine, FaultFreeGuardedMatchesPlainEverywhere) {
  // Every scenario x strategy x dispatch path x carrier x deadline: a
  // fault-free run over guarded lanes charges exactly the PPE time of the
  // same run over plain lanes and returns bit-identical, undegraded
  // results.
  std::vector<img::SicEncoded> sic;
  std::vector<img::SicEncoded> ppm;
  for (std::uint64_t seed : {3100u, 3101u, 3102u}) {
    const img::RgbImage image = testutil::seeded_image(seed);
    sic.push_back(img::sic_encode(image));
    ppm.push_back(img::ppm_encode(image));
  }
  struct Run {
    std::vector<double> ns;  // per call: analyze, stream
    std::vector<marvel::AnalysisResult> results;
  };
  auto run_paths = [&](marvel::Scenario scenario, Strategy strategy,
                       bool feed, const guard::GuardPolicy& policy) {
    sim::Machine machine;
    marvel::CellEngine engine(machine, library_->path(), scenario,
                              kernels::kDoubleBuffer, false, policy);
    set_strategy(engine, strategy);
    engine.set_feed(feed);
    const std::vector<img::SicEncoded>& images = feed ? ppm : sic;
    Run run;
    auto timed = [&](auto&& call) {
      const double t0 = machine.ppe().now_ns();
      for (marvel::AnalysisResult& r : call()) {
        run.results.push_back(std::move(r));
      }
      run.ns.push_back(machine.ppe().now_ns() - t0);
    };
    timed([&] {
      return std::vector<marvel::AnalysisResult>{engine.analyze(images[0])};
    });
    marvel::StreamOptions opts;
    opts.batch = 2;  // a full and a partial window, retired in turn
    opts.sequential = true;
    timed([&] { return engine.analyze_stream(images, opts); });
    return run;
  };
  for (marvel::Scenario scenario : kScenarios) {
    for (Strategy strategy : kStrategies) {
      for (bool feed : {false, true}) {
        const Run plain = run_paths(scenario, strategy, feed, {});
        for (double deadline_ns : {0.0, 500e6}) {
          SCOPED_TRACE(case_label(scenario, strategy) +
                       (feed ? " ppm+feed" : " sic") + " deadline " +
                       std::to_string(deadline_ns));
          guard::GuardPolicy policy = guarded_policy();
          policy.retry.deadline_ns = deadline_ns;
          const Run guarded = run_paths(scenario, strategy, feed, policy);
          EXPECT_EQ(guarded.ns, plain.ns);
          ASSERT_EQ(guarded.results.size(), plain.results.size());
          for (std::size_t i = 0; i < plain.results.size(); ++i) {
            expect_bitwise_equal(guarded.results[i], plain.results[i]);
            EXPECT_TRUE(guarded.results[i].degraded.empty());
          }
        }
      }
    }
  }
}

TEST(CellEngine, UnguardedFaultThrowsOnEveryPath) {
  // A plain lane's finish() is exactly Wait(): a kernel fault on an SPE
  // that carries work must surface as cellport::Error from every
  // dispatch path. Scenario 1's fused and balanced strategies run one
  // lane on SPE 0, so a fault on SPE 1 never fires there. Each throwing
  // case also exercises the unwind: the other lanes' in-flight kernels
  // must be waited out before the buffers they write are freed.
  testutil::TempLibrary library("cellport_unguarded_fault_models.bin",
                                /*extra_concepts=*/2);
  const std::vector<img::SicEncoded> images = {
      img::sic_encode(testutil::seeded_image(3200, 48, 32)),
      img::sic_encode(testutil::seeded_image(3201, 48, 32))};
  for (marvel::Scenario scenario : kScenarios) {
    for (Strategy strategy : kStrategies) {
      for (bool stream : {false, true}) {
        SCOPED_TRACE(case_label(scenario, strategy) +
                     (stream ? " stream" : " analyze"));
        sim::Machine machine;
        marvel::CellEngine engine(machine, library.path(), scenario);
        set_strategy(engine, strategy);
        sim::FaultInjection f;
        f.dma_error_after = 0;
        machine.spe(1).inject_fault(f);
        auto run = [&] {
          if (stream) {
            engine.analyze_stream(images);
          } else {
            engine.analyze(images[0]);
          }
        };
        if (scenario == marvel::Scenario::kSingleSPE &&
            strategy != Strategy::kPerFeature) {
          EXPECT_NO_THROW(run());
        } else {
          EXPECT_THROW(run(), cellport::Error);
        }
      }
    }
  }
  sim::InvariantChannel::instance().drain();
}

}  // namespace
}  // namespace cellport
