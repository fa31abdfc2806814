// Tests for the cellcheck harness itself (src/check): the scenario
// generator's determinism and constraint discipline, spec JSON
// round-trips (64-bit seeds included), the runner's verdict on known
// seeds, the greedy shrinker, and the invariant channel the whole
// harness is built on.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "check/faults.h"
#include "check/runner.h"
#include "check/scenario.h"
#include "check/shrink.h"
#include "sim/invariants.h"
#include "sim/machine.h"
#include "support/error.h"
#include "testutil.h"

namespace cellport::check {
namespace {

// ---- scenario generation ----

TEST(ScenarioGenerator, EqualSeedsProduceIdenticalSpecs) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull,
                             0xFFFFFFFFFFFFFFFFull}) {
    EXPECT_EQ(spec_to_json(generate_scenario(seed)),
              spec_to_json(generate_scenario(seed)))
        << "seed " << seed;
  }
}

TEST(ScenarioGenerator, RespectsEngineAndKernelConstraints) {
  std::set<Mode> seen_modes;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    ScenarioSpec s = generate_scenario(seed * 7919 + 1);
    seen_modes.insert(s.mode);

    EXPECT_GE(s.num_spes, 1);
    EXPECT_LE(s.num_spes, 8);
    EXPECT_GE(s.buffering, 1);
    EXPECT_LE(s.buffering, 3);
    ASSERT_FALSE(s.images.empty());
    for (const auto& im : s.images) {
      EXPECT_GE(im.width, 1);
      EXPECT_GE(im.height, 1);
    }

    if (s.mode == Mode::kKernelDirect) {
      EXPECT_GE(s.kernel, kKernelCh);
      EXPECT_LE(s.kernel, kKernelTx);
      if (s.kernel == kKernelTx) {
        // The texture extractor needs both dimensions >= 16.
        for (const auto& im : s.images) {
          EXPECT_GE(im.width, 16);
          EXPECT_GE(im.height, 16);
        }
      }
    } else {
      EXPECT_EQ(s.kernel, -1);
      // Engine/TaskPool inputs go through the codec and the full
      // kernel set, so every dimension must satisfy the strictest one.
      for (const auto& im : s.images) {
        EXPECT_GE(im.width, 16);
        EXPECT_GE(im.height, 16);
      }
    }
    const bool engine = s.mode != Mode::kKernelDirect &&
                        s.mode != Mode::kTaskPool;
    if (!engine) {
      // The executor's knobs exist only on the engine; replay rides
      // every mode.
      EXPECT_FALSE(s.sharded || s.fused || s.balanced || s.feed ||
                   s.serve || s.guarded || s.scaling_probe);
      EXPECT_EQ(s.stream_batch, 0);
      EXPECT_EQ(s.cache_kb, 0);
    }
    // One dispatch path per scenario: per-call, streamed, or served.
    EXPECT_FALSE(s.serve && s.stream_batch > 0);
    if (s.scaling_probe) {
      EXPECT_EQ(s.fault_kind, -1);  // probes build their own machines
      EXPECT_FALSE(s.guarded || s.sharded || s.serve);
    }
    if (s.guarded) {
      // The spare-SPE probe wants the spare SPEs the guard retries on.
      EXPECT_EQ(s.fault_kind, -1);
    }
    if (s.sched_fault >= 0) {
      EXPECT_TRUE(s.guarded);
      EXPECT_LT(s.sched_fault, kNumSchedFaults);
      EXPECT_LT(s.sched_spe, s.mode == Mode::kEngineMulti2 ? 8 : 5);
      EXPECT_LT(s.sched_at, static_cast<int>(s.images.size()));
    }
    if (s.sharded || s.serve) {
      EXPECT_EQ(s.fault_kind, -1);  // neither leaves a spare SPE probe
    }
    if (s.fault_kind >= 0) {
      EXPECT_LT(s.fault_kind, kNumFaultKinds);
      // The fault needs a spare SPE beyond the mode's pinned layout.
      if (s.mode == Mode::kEngineSingle || s.mode == Mode::kEngineMulti) {
        EXPECT_GE(s.num_spes, 6);
      }
      EXPECT_NE(s.mode, Mode::kEngineMulti2);  // all 8 SPEs are pinned
    }
  }
  // 400 seeds must exercise every mode, or the fuzzer lost coverage.
  EXPECT_EQ(seen_modes.size(), 5u);
}

TEST(ScenarioGenerator, ReachesEveryRider) {
  std::set<std::string> seen;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    ScenarioSpec s = generate_scenario(seed * 7919 + 1);
    const auto& im = s.images;
    for (std::size_t i = 1; i < im.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (im[i] == im[j]) seen.insert("dup");
      }
    }
    if (s.fault_kind >= 0) seen.insert("fault");
    if (s.sharded) seen.insert("sharded");
    if (s.fused) seen.insert("fused");
    if (s.balanced) seen.insert("balanced");
    if (s.stream_batch > 0) seen.insert("stream");
    if (s.serve) seen.insert("serve");
    if (s.serve_tight) seen.insert("serve-tight");
    if (s.guarded) seen.insert("guarded");
    if (s.sched_fault >= 0) {
      seen.insert(std::string("sched=") + sched_fault_name(s.sched_fault));
    }
    if (s.feed) seen.insert("feed");
    if (s.cache_kb > 0) seen.insert("cache");
    if (s.replay_twice) seen.insert("replay");
    if (s.replay_twice && s.mode == Mode::kTaskPool) {
      seen.insert("taskpool-replay");
    }
    if (s.scaling_probe) seen.insert("scaling");
  }
  for (const char* rider :
       {"dup", "fault", "sharded", "fused", "balanced", "stream", "serve",
        "serve-tight", "guarded", "sched=hang-transient",
        "sched=hang-persistent", "sched=slow", "sched=dma-error", "feed",
        "cache", "replay", "taskpool-replay", "scaling"}) {
    EXPECT_TRUE(seen.count(rider)) << "no scenario drew " << rider;
  }
}

TEST(ScenarioSpecJson, RoundTripsIncluding64BitSeeds) {
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    ScenarioSpec s = generate_scenario(seed * 0x9E3779B97F4A7C15ull);
    std::string json = spec_to_json(s);
    EXPECT_EQ(spec_to_json(spec_from_json(json)), json);
  }

  // Seeds use all 64 bits — more than a JSON double can carry — so they
  // must survive serialization exactly.
  ScenarioSpec wide = generate_scenario(3);
  wide.seed = 0xFFFFFFFFFFFFFFFFull;
  wide.images[0].seed = 10433915236847334158ull;
  ScenarioSpec back = spec_from_json(spec_to_json(wide));
  EXPECT_EQ(back.seed, wide.seed);
  EXPECT_EQ(back.images[0].seed, wide.images[0].seed);
}

TEST(ScenarioSpecJson, RejectsMalformedSpecs) {
  EXPECT_THROW(spec_from_json("{}"), Error);
  EXPECT_THROW(spec_from_json("[]"), Error);
  EXPECT_THROW(spec_from_json("not json"), Error);
  // A valid spec with an unknown mode name must not be silently guessed.
  ScenarioSpec s = generate_scenario(5);
  std::string json = spec_to_json(s);
  std::string::size_type at = json.find(mode_name(s.mode));
  ASSERT_NE(at, std::string::npos);
  json.replace(at, std::string(mode_name(s.mode)).size(), "warp-drive");
  EXPECT_THROW(spec_from_json(json), Error);
}

// run_serve has no streamed window, spare-SPE probe or scaling check, so
// a replayed serve spec that sets one is rejected instead of passing
// without it.
ScenarioSpec serve_spec() {
  ScenarioSpec s;
  s.mode = Mode::kEngineMulti;
  s.num_spes = 6;
  s.serve = true;
  s.images.push_back({/*kind=*/0, /*seed=*/1, 64, 48, 85});
  EXPECT_NO_THROW(spec_from_json(spec_to_json(s)));
  return s;
}

TEST(ScenarioSpecJson, RejectsServeWithStreamBatch) {
  ScenarioSpec s = serve_spec();
  s.stream_batch = 2;
  EXPECT_THROW(spec_from_json(spec_to_json(s)), ConfigError);
}

TEST(ScenarioSpecJson, RejectsServeWithFaultKind) {
  ScenarioSpec s = serve_spec();
  s.fault_kind = 0;
  EXPECT_THROW(spec_from_json(spec_to_json(s)), ConfigError);
}

TEST(ScenarioSpecJson, RejectsServeWithScalingProbe) {
  ScenarioSpec s = serve_spec();
  s.scaling_probe = true;
  EXPECT_THROW(spec_from_json(spec_to_json(s)), ConfigError);
}

// ---- the runner ----

class CheckRunner : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_check_models.bin",
                                         /*extra_concepts=*/2);
  }
  static void TearDownTestSuite() { delete library_; }
  static RunConfig config() { return RunConfig{library_->path()}; }

  static testutil::TempLibrary* library_;
};

testutil::TempLibrary* CheckRunner::library_ = nullptr;

TEST_F(CheckRunner, FixedSeedsPass) {
  // A slice of the default run (seeds as `cellcheck --seed 1` derives
  // them); any failure here is a real property violation, and its seed
  // is printed for `cellcheck --replay`.
  for (std::uint64_t seed = 11; seed < 17; ++seed) {
    ScenarioSpec spec = generate_scenario(seed * 0xA24BAED4963EE407ull);
    RunOutcome out = run_scenario(spec, config());
    EXPECT_TRUE(out.ok) << "seed " << spec.seed << " failed "
                        << out.property << ": " << out.message;
  }
}

TEST_F(CheckRunner, FaultScenarioPasses) {
  // Hand-built injection scenario: kernel-direct CH with a concurrent
  // misaligned-DMA fault on a spare SPE.
  ScenarioSpec spec;
  spec.mode = Mode::kKernelDirect;
  spec.num_spes = 2;
  spec.kernel = kKernelCh;
  spec.fault_kind = kFaultMisalignedDma;
  spec.images.push_back({/*kind=*/3, /*seed=*/9, 32, 32, 85});
  RunOutcome out = run_scenario(spec, config());
  EXPECT_TRUE(out.ok) << out.property << ": " << out.message;
}

TEST_F(CheckRunner, FeedScenarioPasses) {
  // Hand-built cellfeed rider: the corpus travels as PPM carriers and
  // the SPE feed kernels ingest it; the oracle comparison is bit-exact.
  ScenarioSpec spec;
  spec.mode = Mode::kEngineMulti;
  spec.num_spes = 5;
  spec.feed = true;
  spec.images.push_back({/*kind=*/2, /*seed=*/21, 96, 64, 85});
  spec.images.push_back({/*kind=*/0, /*seed=*/22, 97, 33, 85});
  RunOutcome out = run_scenario(spec, config());
  EXPECT_TRUE(out.ok) << out.property << ": " << out.message;
}

TEST_F(CheckRunner, GuardedFeedFaultScenarioPasses) {
  // A scheduled DMA error on the detect SPE — the lane feed rows ride —
  // must leave the guarded run bit-exact (retry or "feed:ingest"
  // fallback) with the degradation accounting intact.
  ScenarioSpec spec;
  spec.mode = Mode::kEngineSingle;
  spec.num_spes = 5;
  spec.feed = true;
  spec.guarded = true;
  spec.sched_fault = kSchedDmaError;
  spec.sched_spe = 4;
  spec.sched_at = 0;
  spec.images.push_back({/*kind=*/3, /*seed=*/23, 64, 48, 85});
  RunOutcome out = run_scenario(spec, config());
  EXPECT_TRUE(out.ok) << out.property << ": " << out.message;
}

TEST_F(CheckRunner, FusedScenarioPasses) {
  // Hand-built cellfuse rider: the single-pass fused lanes replace the
  // per-feature extraction; the oracle comparison is bit-exact.
  ScenarioSpec spec;
  spec.mode = Mode::kEngineMulti;
  spec.num_spes = 5;
  spec.fused = true;
  spec.images.push_back({/*kind=*/2, /*seed=*/31, 96, 64, 85});
  spec.images.push_back({/*kind=*/0, /*seed=*/32, 97, 33, 85});
  RunOutcome out = run_scenario(spec, config());
  EXPECT_TRUE(out.ok) << out.property << ": " << out.message;
}

TEST_F(CheckRunner, GuardedFusedFaultScenarioPasses) {
  // A scheduled DMA error on a fused lane must leave the guarded run
  // bit-exact (retry, or all four features degraded as "fuse:*" PPE
  // fallbacks) with the degradation accounting intact.
  ScenarioSpec spec;
  spec.mode = Mode::kEngineMulti;
  spec.num_spes = 6;
  spec.fused = true;
  spec.guarded = true;
  spec.sched_fault = kSchedDmaError;
  spec.sched_spe = 0;
  spec.sched_at = 0;
  spec.images.push_back({/*kind=*/3, /*seed=*/33, 64, 48, 85});
  RunOutcome out = run_scenario(spec, config());
  EXPECT_TRUE(out.ok) << out.property << ": " << out.message;
}

TEST_F(CheckRunner, IdleLanesAreNotArmed) {
  // Guard-matrix seeds 9 and 10 at 500 scenarios, minimized: a 16x16
  // image is one Haar tile, so every fused lane but lane 0 is idle. The
  // scheduled fault sits on an idle lane; arming that lane's ring fired
  // it with no work to retry (guard.not-exercised). A stage's lanes are
  // its tasks' lanes, so idle lanes are not armed, the fault never fires
  // and the run is the healthy one. The third spec is the sharded
  // per-feature stream, which follows the same rule: its fault sits on
  // the TX shard lane (SPE 5). shard::plan_shards never gives TX a
  // second shard, and CC has at most 8 shards for an image of at least
  // 16 rows, so no shard lane of a legal image is idle; the spec pins
  // that the faulted lane is armed, retried and bit-exact.
  const char* const specs[] = {
      R"({"seed":"1717181361462155540","mode":"engine-single","num_spes":5,)"
      R"("pool_workers":1,"buffering":2,"block_rows":0,"use_naive":false,)"
      R"("stream_batch":1,"kernel":-1,"fault_kind":-1,"replay_twice":false,)"
      R"("scaling_probe":false,"sharded":true,"feed":false,"fused":true,)"
      R"("balanced":false,"cache_kb":0,"guarded":true,"sched_fault":2,)"
      R"("sched_spe":2,"sched_at":0,"serve":false,"serve_tenants":1,)"
      R"("serve_budget":8,"serve_batch":2,"serve_tight":false,"images":)"
      R"([{"kind":0,"seed":"1","width":16,"height":16,"quality":85}]})",
      R"({"seed":"8975601525762773200","mode":"engine-single","num_spes":8,)"
      R"("pool_workers":1,"buffering":2,"block_rows":0,"use_naive":false,)"
      R"("stream_batch":1,"kernel":-1,"fault_kind":-1,"replay_twice":false,)"
      R"("scaling_probe":false,"sharded":true,"feed":false,"fused":true,)"
      R"("balanced":false,"cache_kb":0,"guarded":true,"sched_fault":3,)"
      R"("sched_spe":4,"sched_at":0,"serve":false,"serve_tenants":1,)"
      R"("serve_budget":8,"serve_batch":2,"serve_tight":false,"images":)"
      R"([{"kind":0,"seed":"1","width":16,"height":16,"quality":85}]})",
      R"({"seed":"1","mode":"engine-single","num_spes":8,)"
      R"("pool_workers":1,"buffering":2,"block_rows":0,"use_naive":false,)"
      R"("stream_batch":1,"kernel":-1,"fault_kind":-1,"replay_twice":false,)"
      R"("scaling_probe":false,"sharded":true,"feed":false,"fused":false,)"
      R"("balanced":false,"cache_kb":0,"guarded":true,"sched_fault":3,)"
      R"("sched_spe":5,"sched_at":0,"serve":false,"serve_tenants":1,)"
      R"("serve_budget":8,"serve_batch":2,"serve_tight":false,"images":)"
      R"([{"kind":0,"seed":"1","width":16,"height":16,"quality":85}]})",
  };
  for (const char* json : specs) {
    const ScenarioSpec spec = spec_from_json(json);
    RunOutcome out = run_scenario(spec, config());
    EXPECT_TRUE(out.ok) << "seed " << spec.seed << " failed "
                        << out.property << ": " << out.message;
  }
}

TEST_F(CheckRunner, ReplayTwiceScenarioIsDeterministic) {
  ScenarioSpec spec;
  spec.mode = Mode::kEngineSingle;
  spec.num_spes = 5;
  spec.replay_twice = true;
  spec.images.push_back({/*kind=*/0, /*seed=*/4, 48, 32, 85});
  RunOutcome out = run_scenario(spec, config());
  EXPECT_TRUE(out.ok) << out.property << ": " << out.message;
}

// ---- the shrinker ----

TEST(Shrinker, ReducesToTheMinimalFailingSpec) {
  // Synthetic failure: "any kernel-direct CH scenario fails". The
  // shrinker must strip the riders and shrink images/machine while the
  // predicate holds, without ever evaluating past its budget.
  ScenarioSpec spec;
  spec.mode = Mode::kKernelDirect;
  spec.num_spes = 8;
  spec.kernel = kKernelCh;
  spec.buffering = 3;
  spec.block_rows = 16;
  spec.use_naive = true;
  spec.replay_twice = true;
  spec.images.push_back({/*kind=*/2, /*seed=*/100, 128, 96, 85});
  spec.images.push_back({/*kind=*/1, /*seed=*/200, 64, 64, 85});
  spec.images.push_back({/*kind=*/4, /*seed=*/300, 96, 48, 85});

  std::size_t calls = 0;
  auto still_fails = [&](const ScenarioSpec& c) {
    ++calls;
    return c.mode == Mode::kKernelDirect && c.kernel == kKernelCh;
  };
  ShrinkResult r = shrink_scenario(spec, still_fails, /*budget=*/500);

  EXPECT_EQ(r.evaluations, calls);
  EXPECT_LE(r.evaluations, 500u);
  EXPECT_GT(r.accepted, 0u);
  EXPECT_EQ(r.spec.mode, Mode::kKernelDirect);
  EXPECT_EQ(r.spec.kernel, kKernelCh);
  EXPECT_EQ(r.spec.images.size(), 1u);
  EXPECT_EQ(r.spec.images[0].width, 1);   // CH accepts 1xN
  EXPECT_EQ(r.spec.images[0].height, 1);
  EXPECT_EQ(r.spec.num_spes, 1);
  EXPECT_FALSE(r.spec.replay_twice);
  EXPECT_FALSE(r.spec.use_naive);
  EXPECT_EQ(r.spec.block_rows, 0);
}

TEST(Shrinker, KeepsTheOriginalWhenNothingSmallerFails) {
  ScenarioSpec spec = generate_scenario(17);
  std::string original = spec_to_json(spec);
  auto never = [](const ScenarioSpec&) { return false; };
  ShrinkResult r = shrink_scenario(spec, never, /*budget=*/50);
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_EQ(spec_to_json(r.spec), original);
}

// ---- the invariant channel ----

TEST(InvariantChannelTest, ReportCountDrainSnapshot) {
  auto& ch = sim::InvariantChannel::instance();
  ch.drain();
  EXPECT_EQ(ch.count(), 0u);

  sim::report_invariant("test.rule", "here", "one");
  sim::report_invariant("test.rule2", "there", "two");
  EXPECT_EQ(ch.count(), 2u);

  auto snap = ch.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].rule, "test.rule");
  EXPECT_EQ(ch.count(), 2u);  // snapshot must not consume

  auto drained = ch.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[1].where, "there");
  EXPECT_EQ(ch.count(), 0u);
  EXPECT_EQ(sim::to_string(drained[0]), "test.rule @ here: one");
}

TEST(InvariantChannelTest, MachineAggregateChecksCatchEibImbalance) {
  sim::InvariantChannel::instance().drain();
  sim::Machine machine(sim::Machine::Config{1});
  EXPECT_TRUE(sim::check_machine_invariants(machine).empty());

  // Forge a bus transfer no MFC performed: conservation must fire.
  machine.eib().record_transfer(4096);
  auto violations = sim::check_machine_invariants(machine);
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const auto& v : violations) {
    if (v.rule.rfind("eib.conservation", 0) == 0) found = true;
  }
  EXPECT_TRUE(found);
  sim::InvariantChannel::instance().drain();
}

}  // namespace
}  // namespace cellport::check
