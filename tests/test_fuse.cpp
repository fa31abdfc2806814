// cellfuse tests: the fused split arithmetic, the fused planner (with an
// in-process recalibration pin on the planner's cost table), the
// SPU_Run_Fused kernel against the four standalone shard kernels, and
// the headline properties — a fused CellEngine is bit-exact with the
// per-feature scenarios while spending at least 2x less SPE schedule on
// extraction.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "img/codec.h"
#include "img/synth.h"
#include "kernels/cc_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "kernels/messages.h"
#include "kernels/tx_kernel.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "shard/partials.h"
#include "shard/plan.h"
#include "shard/reducer.h"
#include "sim/machine.h"
#include "support/error.h"
#include "testutil.h"

namespace cellport::marvel {
namespace {

using testutil::expect_bitwise_equal;
using testutil::run_shard_kernel;

// ---- fused split arithmetic ----

TEST(FusedSplit, CoversAllRowsWithTileAlignedBegins) {
  for (int h : {240, 241, 37, 17, 16, 32, 33}) {
    for (int n : {1, 2, 3, 5, 8}) {
      std::vector<shard::Range> r = shard::split_fused(h, n);
      ASSERT_EQ(r.size(), static_cast<std::size_t>(n));
      int next = 0;
      int last_end = 0;
      for (const auto& range : r) {
        if (range.empty()) continue;
        EXPECT_EQ(range.begin, next);
        EXPECT_EQ(range.begin % kernels::kTxTileRows, 0)
            << "h=" << h << " n=" << n;
        next = range.end;
        last_end = range.end;
      }
      // Unlike split_tiles, the LAST lane absorbs the odd bottom row(s):
      // fused lanes cover every image row, not just the even-height
      // Haar region.
      EXPECT_EQ(last_end, h) << "h=" << h << " n=" << n;
    }
  }
}

TEST(FusedSplit, ShortImagesFallBackToRowSplits) {
  // Below one Haar tile there is no TX section to keep aligned, so the
  // split degenerates to the plain near-equal row split.
  for (int h : {1, 2, 9, 15}) {
    for (int n : {1, 2, 3}) {
      std::vector<shard::Range> fused = shard::split_fused(h, n);
      std::vector<shard::Range> rows = shard::split_rows(h, n);
      ASSERT_EQ(fused.size(), rows.size());
      for (std::size_t i = 0; i < fused.size(); ++i) {
        EXPECT_EQ(fused[i].begin, rows[i].begin);
        EXPECT_EQ(fused[i].end, rows[i].end);
      }
    }
  }
}

TEST(FusedSplit, PartialSizeArithmetic) {
  // 352x240: full cover = 15 tiles of 12 doubles after the count block.
  EXPECT_EQ(kernels::fused_tx_doubles(352, 240, 0, 240),
            15 * kernels::kTxTileDoubles);
  EXPECT_EQ(kernels::fused_partial_bytes(352, 240, 0, 240),
            kernels::kFusedCountBytes + 15 * kernels::kTxTileDoubles * 8);
  // Odd height: the even region [0, 18) still spans a ragged second
  // tile; the 19th row feeds no tile at all.
  EXPECT_EQ(kernels::fused_tx_doubles(96, 19, 0, 19),
            2 * kernels::kTxTileDoubles);
  // Sub-tile images carry no TX section at all.
  EXPECT_EQ(kernels::fused_tx_doubles(9, 240, 0, 240), 0);
  EXPECT_EQ(kernels::fused_tx_doubles(240, 9, 0, 9), 0);
  EXPECT_EQ(kernels::fused_partial_bytes(9, 240, 0, 240),
            kernels::kFusedCountBytes);
}

// ---- the fused kernel against the standalone shard kernels ----

std::vector<std::uint8_t> run_fused(const img::RgbImage& image,
                                    int row_begin, int row_end,
                                    sim::SimTime* busy_ns = nullptr) {
  const std::size_t bytes = static_cast<std::size_t>(
      kernels::fused_partial_bytes(image.width(), image.height(),
                                   row_begin, row_end));
  // Every extract module registers the fused body; CH's is as good as
  // any.
  return run_shard_kernel(kernels::ch_module(), image,
                          static_cast<int>(kernels::SPU_Run_Fused), bytes,
                          row_begin, row_end, busy_ns);
}

TEST(FusedKernel, MatchesTheFourStandaloneKernels) {
  // Degenerate shapes (no TX section), SIMD-ragged widths, tile-exact
  // and tile-ragged heights, a max-width row, and the paper's 352x240.
  const struct {
    int w, h;
  } shapes[] = {{1, 1},    {9, 1},   {1, 9},    {5, 3},   {16, 16},
                {63, 37},  {33, 17}, {96, 19},  {47, 16}, {352, 31},
                {352, 240}, {1280, 32}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << s.w << "x" << s.h);
    img::RgbImage image =
        img::synth_image(img::SceneKind::kGradient, 77, s.w, s.h);
    const int h = image.height();
    std::vector<std::uint8_t> fused = run_fused(image, 0, h);
    const std::uint8_t* words = fused.data();

    std::vector<std::uint8_t> ch = run_shard_kernel(
        kernels::ch_module(), image, static_cast<int>(kernels::SPU_Run),
        kernels::kShardChWords * 4, 0, h);
    EXPECT_EQ(std::memcmp(words, ch.data(), ch.size()), 0) << "CH section";

    std::vector<std::uint8_t> cc = run_shard_kernel(
        kernels::cc_module(), image, static_cast<int>(kernels::SPU_Run),
        kernels::kShardCcWords * 4, 0, h);
    EXPECT_EQ(std::memcmp(words + kernels::kFusedCcOffset * 4, cc.data(),
                          cc.size()),
              0)
        << "CC section";

    std::vector<std::uint8_t> eh = run_shard_kernel(
        kernels::eh_module(), image, static_cast<int>(kernels::SPU_Run),
        kernels::kShardEhWords * 4, 0, h);
    EXPECT_EQ(std::memcmp(words + kernels::kFusedEhOffset * 4, eh.data(),
                          eh.size()),
              0)
        << "EH section";

    const int tx_doubles =
        kernels::fused_tx_doubles(image.width(), h, 0, h);
    if (tx_doubles > 0) {
      const int heff = 2 * (h / 2);
      std::vector<std::uint8_t> tx = run_shard_kernel(
          kernels::tx_module(), image, static_cast<int>(kernels::SPU_Run),
          static_cast<std::size_t>(tx_doubles) * 8, 0, heff);
      EXPECT_EQ(std::memcmp(words + kernels::kFusedCountBytes, tx.data(),
                            tx.size()),
                0)
          << "TX section";
    }
  }
}

TEST(FusedKernel, LaneSplitReducesLikeOneLane) {
  // Three fused lanes over split_fused ranges must reduce to the same
  // feature floats as one whole-image lane — the shard row-range parity
  // the engine relies on.
  for (const auto& s : {std::pair<int, int>{352, 240},
                        std::pair<int, int>{96, 19},
                        std::pair<int, int>{33, 17}}) {
    SCOPED_TRACE(testing::Message() << s.first << "x" << s.second);
    img::RgbImage image =
        img::synth_image(img::SceneKind::kTexture, 5, s.first, s.second);
    const int w = image.width();
    const int h = image.height();
    std::vector<shard::Range> rows = shard::split_fused(h, 3);
    std::vector<std::vector<std::uint8_t>> lanes;
    std::vector<shard::Range> live;
    for (const auto& r : rows) {
      if (r.empty()) continue;
      lanes.push_back(run_fused(image, r.begin, r.end));
      live.push_back(r);
    }
    std::vector<std::uint8_t> whole = run_fused(image, 0, h);

    auto reduce_all = [&](const std::vector<const std::uint8_t*>& blobs,
                          const std::vector<shard::Range>& ranges) {
      std::vector<std::vector<float>> out(4);
      std::vector<const std::uint32_t*> ch, cc, eh;
      std::vector<const double*> tiles;
      std::vector<int> doubles;
      for (std::size_t j = 0; j < blobs.size(); ++j) {
        const auto* words =
            reinterpret_cast<const std::uint32_t*>(blobs[j]);
        ch.push_back(words);
        cc.push_back(words + kernels::kFusedCcOffset);
        eh.push_back(words + kernels::kFusedEhOffset);
        tiles.push_back(reinterpret_cast<const double*>(
            blobs[j] + kernels::kFusedCountBytes));
        doubles.push_back(kernels::fused_tx_doubles(
            w, h, ranges[j].begin, ranges[j].end));
      }
      const int n = static_cast<int>(blobs.size());
      out[0].resize(kernels::kShardChWords);
      shard::reduce_ch(ch.data(), n, w, h, out[0].data(), nullptr);
      out[1].resize(kernels::kShardCcWords / 2);
      shard::reduce_cc(cc.data(), n, out[1].data(), nullptr);
      out[2].resize(kernels::kShardEhWords);
      shard::reduce_eh(eh.data(), n, w, h, out[2].data(), nullptr);
      out[3].resize(16);
      shard::reduce_tx(tiles.data(), doubles.data(), n, w, h,
                       out[3].data(), nullptr);
      return out;
    };
    std::vector<const std::uint8_t*> split_ptrs;
    for (const auto& l : lanes) split_ptrs.push_back(l.data());
    const std::uint8_t* whole_ptr = whole.data();
    std::vector<std::vector<float>> split_out =
        reduce_all(split_ptrs, live);
    std::vector<std::vector<float>> whole_out =
        reduce_all({whole_ptr}, {shard::Range{0, h}});
    for (int i = 0; i < 4; ++i) EXPECT_EQ(split_out[i], whole_out[i]);
  }
}

TEST(FusedKernel, MisalignedShardRangeThrows) {
  img::RgbImage image =
      img::synth_image(img::SceneKind::kGradient, 3, 64, 64);
  // The SPE dispatcher surfaces kernel faults as cellport::Error.
  EXPECT_THROW(run_fused(image, 8, 64), cellport::Error);
}

// ---- the fused planner ----

TEST(FusedPlanner, TwoSpesIsTheFloor) {
  shard::FusedPlan plan = shard::plan_fused(2);
  EXPECT_EQ(plan.lanes, 1);
  EXPECT_EQ(plan.detect_spes, 1);
  EXPECT_THROW(shard::plan_fused(1), cellport::ConfigError);
}

TEST(FusedPlanner, EightSpesSplitLanesAndDetect) {
  shard::FusedPlan plan = shard::plan_fused(8);
  EXPECT_LE(plan.spes_used(), 8);
  // Extraction dominates detection by ~35x, so the planner pours SPEs
  // into lanes.
  EXPECT_GT(plan.lanes, 1);
  EXPECT_GT(plan.lanes, plan.detect_spes);
  EXPECT_GE(plan.detect_spes, 1);
  shard::KernelCosts costs = shard::default_costs();
  // More SPEs must never predict a slower image, and the fused plan
  // must beat the sharded plan of the same machine — the point of the
  // single-pass kernel.
  EXPECT_LT(plan.critical_path(costs),
            shard::plan_fused(2).critical_path(costs));
  EXPECT_LT(plan.critical_path(costs),
            shard::plan_shards(8).critical_path(costs));
}

TEST(FusedPlanner, Deterministic) {
  for (int spes : {2, 4, 6, 8}) {
    shard::FusedPlan a = shard::plan_fused(spes);
    shard::FusedPlan b = shard::plan_fused(spes);
    EXPECT_EQ(a.lanes, b.lanes);
    EXPECT_EQ(a.detect_spes, b.detect_spes);
  }
}

TEST(FusedPlanner, CalibrationPinned) {
  // Re-measures the planner's cost table in-process on the calibration
  // shape (352x240) and fails if the committed constants drift by more
  // than 20% — the guard that keeps plan_shards/plan_fused honest after
  // kernel-performance PRs (the pre-PR-7 table overweighted CC by ~5x).
  img::RgbImage image = testutil::seeded_image(4242, 352, 240);
  const int h = image.height();
  sim::SimTime ch = 0, cc = 0, eh = 0, tx = 0, fused = 0;
  run_shard_kernel(kernels::ch_module(), image,
                   static_cast<int>(kernels::SPU_Run),
                   kernels::kShardChWords * 4, 0, h, &ch);
  run_shard_kernel(kernels::cc_module(), image,
                   static_cast<int>(kernels::SPU_Run),
                   kernels::kShardCcWords * 4, 0, h, &cc);
  run_shard_kernel(kernels::eh_module(), image,
                   static_cast<int>(kernels::SPU_Run),
                   kernels::kShardEhWords * 4, 0, h, &eh);
  run_shard_kernel(kernels::tx_module(), image,
                   static_cast<int>(kernels::SPU_Run),
                   static_cast<std::size_t>(
                       kernels::fused_tx_doubles(352, 240, 0, h)) *
                       8,
                   0, 2 * (h / 2), &tx);
  run_fused(image, 0, h, &fused);
  ASSERT_GT(ch, 0);
  shard::KernelCosts costs = shard::default_costs();
  const double unit = static_cast<double>(ch);
  auto pin = [&](const char* name, sim::SimTime busy, double want) {
    const double measured = static_cast<double>(busy) / unit;
    EXPECT_NEAR(measured, want, 0.20 * want)
        << name << ": measured " << measured << " CH units, table says "
        << want << " — recalibrate shard::default_costs()";
  };
  pin("cc", cc, costs.extract[shard::kSlotCc]);
  pin("tx", tx, costs.extract[shard::kSlotTx]);
  pin("eh", eh, costs.extract[shard::kSlotEh]);
  pin("fused", fused, costs.fused);
  // The fusion has to pay off: one pass must undercut the four kernels
  // summed (shared fetch + shared conversions).
  EXPECT_LT(fused, ch + cc + eh + tx);

  // Detection has no kernel-only harness (it needs a model library), so
  // its unit is pinned from a single-SPE engine's phase profile: the
  // ConceptDet / CHExtract exclusive-time ratio on the FULL synthetic
  // library (the paper's 166-model store — what the planner actually
  // plans for; detection cost scales with the model count). Slightly
  // looser tolerance — the phases fold in PPE dispatch.
  testutil::TempLibrary library("cellport_fuse_calib_models.bin");
  sim::Machine machine;
  CellEngine engine(machine, library.path(), Scenario::kSingleSPE);
  Dataset data = make_dataset(2, 4242);
  engine.analyze(data.images[0]);  // warm
  auto phase_ns = [&](const char* name) {
    for (const auto& rec : engine.profiler().report()) {
      if (rec.name == name) return rec.exclusive_ns;
    }
    return 0.0;
  };
  const double ch0 = phase_ns(kPhaseCh);
  const double cd0 = phase_ns(kPhaseCd);
  engine.analyze(data.images[1]);
  const double ch_phase = phase_ns(kPhaseCh) - ch0;
  const double cd_phase = phase_ns(kPhaseCd) - cd0;
  ASSERT_GT(ch_phase, 0.0);
  const double detect = cd_phase / ch_phase;
  EXPECT_NEAR(detect, costs.detect, 0.25 * costs.detect)
      << "detect: measured " << detect << " CH units, table says "
      << costs.detect << " — recalibrate shard::default_costs()";
}

// ---- end to end ----

class FusedEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_fuse_models.bin", 2);
    dataset_ = new Dataset(make_dataset(2, 4242));
  }
  static void TearDownTestSuite() {
    delete library_;
    delete dataset_;
  }
  static const std::string& library_path() { return library_->path(); }

  static testutil::TempLibrary* library_;
  static Dataset* dataset_;
};

testutil::TempLibrary* FusedEngine::library_ = nullptr;
Dataset* FusedEngine::dataset_ = nullptr;

TEST_F(FusedEngine, BitExactInEveryScenario) {
  for (Scenario scenario : {Scenario::kSingleSPE, Scenario::kMultiSPE,
                            Scenario::kMultiSPE2, Scenario::kSharded}) {
    SCOPED_TRACE(static_cast<int>(scenario));
    sim::Machine m1;
    CellEngine plain(m1, library_path(), scenario);
    sim::Machine m2;
    CellEngine fused(m2, library_path(), scenario);
    fused.set_fused(true);
    for (const auto& image : dataset_->images) {
      expect_bitwise_equal(fused.analyze(image), plain.analyze(image));
    }
  }
}

TEST_F(FusedEngine, BitExactOnAwkwardImageShapes) {
  const struct {
    int w, h;
  } shapes[] = {{63, 37}, {33, 17}, {96, 19}, {352, 31}, {47, 16}};
  sim::Machine m1;
  CellEngine plain(m1, library_path(), Scenario::kMultiSPE);
  sim::Machine m2;
  CellEngine fused(m2, library_path(), Scenario::kSharded);
  fused.set_fused(true);
  for (const auto& s : shapes) {
    img::SicEncoded enc = img::sic_encode(
        img::synth_image(img::SceneKind::kGradient, 77, s.w, s.h));
    expect_bitwise_equal(fused.analyze(enc), plain.analyze(enc));
  }
}

TEST_F(FusedEngine, ExtractionThroughputAtLeastDoubles) {
  // ISSUE 9's headline gate: at the same kMultiSPE placement (4 extract
  // SPEs), the single-pass lanes must finish extraction at least 2x
  // faster than the four per-feature kernels — the extraction phase is
  // the same wall-clock span in both engines.
  auto phase_ns = [](port::Profiler& prof, const char* name) {
    for (const auto& rec : prof.report()) {
      if (rec.name == name) return rec.exclusive_ns;
    }
    return 0.0;
  };
  auto extract_ns = [&](bool fused) {
    sim::Machine machine;
    CellEngine engine(machine, library_path(), Scenario::kMultiSPE);
    engine.set_fused(fused);
    engine.analyze(dataset_->images[0]);  // warm
    const double t0 = phase_ns(engine.profiler(), kPhaseExtractPar);
    engine.analyze(dataset_->images[1]);
    return phase_ns(engine.profiler(), kPhaseExtractPar) - t0;
  };
  const double per_feature = extract_ns(false);
  const double fused = extract_ns(true);
  ASSERT_GT(fused, 0.0);
  EXPECT_GT(per_feature / fused, 2.0)
      << "per-feature " << per_feature << " ns vs fused " << fused
      << " ns";
}

TEST_F(FusedEngine, StreamMatchesPerImageCalls) {
  Dataset data = make_dataset(6, 99);
  sim::Machine m1;
  CellEngine per_call(m1, library_path(), Scenario::kSharded);
  sim::Machine m2;
  CellEngine streaming(m2, library_path(), Scenario::kSharded);
  streaming.set_fused(true);
  StreamStats stats;
  StreamOptions opts;
  opts.batch = 3;
  std::vector<AnalysisResult> streamed =
      streaming.analyze_stream(data.images, opts, &stats);
  ASSERT_EQ(streamed.size(), data.images.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    expect_bitwise_equal(streamed[i], per_call.analyze(data.images[i]));
  }
  EXPECT_GT(stats.doorbells, 0u);
  // Every in-flight image merged its own fused blobs.
  EXPECT_EQ(m2.metrics().counter("fuse.images").value(),
            data.images.size());
}

TEST_F(FusedEngine, GuardedStreamSurvivesALaneFault) {
  Dataset data = make_dataset(4, 7);
  sim::Machine plain;
  CellEngine baseline(plain, library_path(), Scenario::kSharded);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  sim::FaultInjection f;
  f.dma_error_after = 2;  // transient fault mid-window on a lane SPE
  machine.spe(1).inject_fault(f);
  CellEngine engine(machine, library_path(), Scenario::kSharded,
                    kernels::kDoubleBuffer, false, guard);
  engine.set_fused(true);
  StreamStats stats;
  StreamOptions opts;
  opts.batch = 2;
  std::vector<AnalysisResult> streamed =
      engine.analyze_stream(data.images, opts, &stats);
  ASSERT_EQ(streamed.size(), data.images.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    expect_bitwise_equal(streamed[i], baseline.analyze(data.images[i]));
  }
  EXPECT_GE(stats.request_retries, 1u);
}

TEST_F(FusedEngine, TransientLaneFaultRetriesToTheSameResult) {
  sim::Machine plain;
  CellEngine baseline(plain, library_path(), Scenario::kSharded);
  AnalysisResult want = baseline.analyze(dataset_->images[0]);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  sim::FaultInjection f;
  f.dma_error_after = 0;  // one transient DMA fault on the first lane
  machine.spe(0).inject_fault(f);
  CellEngine engine(machine, library_path(), Scenario::kSharded,
                    kernels::kDoubleBuffer, false, guard);
  engine.set_fused(true);
  AnalysisResult got = engine.analyze(dataset_->images[0]);
  expect_bitwise_equal(got, want);
  EXPECT_TRUE(got.degraded.empty());  // a retry is not a degradation
}

TEST_F(FusedEngine, ExhaustedLaneFallsBackToThePpe) {
  sim::Machine plain;
  CellEngine baseline(plain, library_path(), Scenario::kSharded);
  AnalysisResult want = baseline.analyze(dataset_->images[0]);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  sim::FaultInjection f;
  f.hang_after = 0;  // lane 0's SPE never answers again
  f.hang_sticky = true;
  f.clears_on_restart = false;
  machine.spe(0).inject_fault(f);
  CellEngine engine(machine, library_path(), Scenario::kSharded,
                    kernels::kDoubleBuffer, false, guard);
  engine.set_fused(true);
  AnalysisResult got = engine.analyze(dataset_->images[0]);
  // A fused lane carries all four features, so losing one degrades all
  // four — but the PPE reruns the fused pass on its slice bit-exactly.
  expect_bitwise_equal(got, want);
  ASSERT_EQ(got.degraded.size(), 4u);
  EXPECT_EQ(got.degraded[0], "fuse:color_histogram");
}

TEST_F(FusedEngine, SmallImagesThrowLikeTheTextureKernel) {
  sim::Machine machine;
  CellEngine engine(machine, library_path(), Scenario::kMultiSPE);
  engine.set_fused(true);
  img::SicEncoded enc = img::sic_encode(
      img::synth_image(img::SceneKind::kGradient, 1, 8, 8));
  EXPECT_THROW(engine.analyze(enc), cellport::ConfigError);
}

TEST_F(FusedEngine, PlanGaugesAndCountersAreExported) {
  sim::Machine machine;
  CellEngine engine(machine, library_path(), Scenario::kSharded);
  engine.set_fused(true);
  const shard::FusedPlan& plan = engine.fused_plan();
  EXPECT_EQ(machine.metrics().gauge("shard.plan.fused_lanes").value(),
            plan.lanes);
  EXPECT_EQ(machine.metrics().gauge("shard.plan.fused_cd").value(),
            plan.detect_spes);
  engine.analyze(dataset_->images[0]);
  EXPECT_EQ(machine.metrics().counter("fuse.images").value(), 1u);
}

}  // namespace
}  // namespace cellport::marvel
