// cellshard tests: shard-range arithmetic, the planner, the reducers,
// and the headline property — a kSharded CellEngine produces an
// AnalysisResult bitwise identical to the unsharded scenarios while
// finishing the image materially faster on 8 SPEs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "img/codec.h"
#include "img/synth.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "marvel/reference_engine.h"
#include "shard/mirror.h"
#include "shard/partials.h"
#include "shard/plan.h"
#include "shard/reducer.h"
#include "sim/machine.h"
#include "support/error.h"
#include "testutil.h"

namespace cellport::marvel {
namespace {

void expect_bitwise_equal(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.color_histogram.values, b.color_histogram.values);
  EXPECT_EQ(a.color_correlogram.values, b.color_correlogram.values);
  EXPECT_EQ(a.edge_histogram.values, b.edge_histogram.values);
  EXPECT_EQ(a.texture.values, b.texture.values);
  EXPECT_EQ(a.ch_detect.values, b.ch_detect.values);
  EXPECT_EQ(a.cc_detect.values, b.cc_detect.values);
  EXPECT_EQ(a.eh_detect.values, b.eh_detect.values);
  EXPECT_EQ(a.tx_detect.values, b.tx_detect.values);
}

// ---- shard-range arithmetic ----

TEST(ShardSplit, RowsCoverEverythingNearEqually) {
  for (int total : {1, 7, 240, 241}) {
    for (int n : {1, 2, 3, 8}) {
      std::vector<shard::Range> r = shard::split_rows(total, n);
      ASSERT_EQ(r.size(), static_cast<std::size_t>(n));
      int next = 0, min_c = total, max_c = 0;
      for (const auto& range : r) {
        EXPECT_EQ(range.begin, next);
        next = range.end;
        if (!range.empty()) {
          min_c = std::min(min_c, range.count());
          max_c = std::max(max_c, range.count());
        }
      }
      EXPECT_EQ(next, total);
      if (total >= n) {
        EXPECT_LE(max_c - min_c, 1);
      }
    }
  }
}

TEST(ShardSplit, TinyImagesYieldEmptyTailShards) {
  std::vector<shard::Range> r = shard::split_rows(2, 4);
  EXPECT_FALSE(r[0].empty());
  EXPECT_FALSE(r[1].empty());
  EXPECT_TRUE(r[2].empty());
  EXPECT_TRUE(r[3].empty());
}

TEST(ShardSplit, TileSplitsAreTileAligned) {
  for (int h : {240, 241, 37, 16, 9}) {
    const int heff = 2 * (h / 2);
    for (int n : {1, 2, 3}) {
      std::vector<shard::Range> r = shard::split_tiles(h, n);
      int next = 0;
      for (const auto& range : r) {
        if (range.empty()) continue;
        EXPECT_EQ(range.begin % kernels::kTxTileRows, 0);
        EXPECT_EQ(range.begin, next);
        next = range.end;
      }
      EXPECT_EQ(next, heff);
    }
  }
}

TEST(ShardSplit, TxPartialDoublesCountsTiles) {
  shard::Range r{0, 32};  // two full tiles
  EXPECT_EQ(shard::tx_partial_doubles(r), 2 * kernels::kTxTileDoubles);
  shard::Range tail{32, 38};  // one ragged tile
  EXPECT_EQ(shard::tx_partial_doubles(tail), kernels::kTxTileDoubles);
}

// ---- planner ----

TEST(ShardPlanner, FiveSpesIsTheUnshardedFloor) {
  shard::ShardPlan plan = shard::plan_shards(5);
  for (int n : plan.extract_shards) EXPECT_EQ(n, 1);
  EXPECT_EQ(plan.detect_spes, 1);
  EXPECT_THROW(shard::plan_shards(4), cellport::ConfigError);
}

TEST(ShardPlanner, EightSpesShardTheDominantKernel) {
  shard::ShardPlan plan = shard::plan_shards(8);
  EXPECT_LE(plan.spes_used(), 8);
  // CC dominates the profile (the paper's Table 1 shape), so it gets the
  // most shards of the four extractions.
  for (int i = 0; i < shard::kNumExtract; ++i) {
    EXPECT_GE(plan.extract_shards[shard::kSlotCc], plan.extract_shards[i]);
  }
  EXPECT_GT(plan.extract_shards[shard::kSlotCc], 1);
  // More SPEs must never predict a slower image.
  shard::KernelCosts costs = shard::default_costs();
  EXPECT_LT(plan.critical_path(costs),
            shard::plan_shards(5).critical_path(costs));
}

TEST(ShardPlanner, Deterministic) {
  for (int spes : {5, 6, 7, 8}) {
    shard::ShardPlan a = shard::plan_shards(spes);
    shard::ShardPlan b = shard::plan_shards(spes);
    for (int i = 0; i < shard::kNumExtract; ++i) {
      EXPECT_EQ(a.extract_shards[i], b.extract_shards[i]);
    }
    EXPECT_EQ(a.detect_spes, b.detect_spes);
  }
}

// ---- reducers against the PPE mirrors ----

TEST(ShardReducer, MirrorPartialsReduceToTheFullHistogram) {
  img::RgbImage image = testutil::seeded_image(11, 96, 70);
  // Whole image as one "shard" vs split in three: identical reductions.
  std::vector<std::uint32_t> whole(kernels::kShardChWords);
  shard::ppe_partial_ch(image, {0, image.height()}, whole.data(), nullptr);
  std::vector<shard::Range> rows = shard::split_rows(image.height(), 3);
  std::vector<std::vector<std::uint32_t>> parts(
      3, std::vector<std::uint32_t>(kernels::kShardChWords));
  const std::uint32_t* ptrs[3];
  for (int s = 0; s < 3; ++s) {
    shard::ppe_partial_ch(image, rows[static_cast<std::size_t>(s)],
                          parts[static_cast<std::size_t>(s)].data(),
                          nullptr);
    ptrs[s] = parts[static_cast<std::size_t>(s)].data();
  }
  std::vector<float> split_out(kernels::kShardChWords);
  std::vector<float> whole_out(kernels::kShardChWords);
  const std::uint32_t* whole_ptr = whole.data();
  shard::reduce_ch(&whole_ptr, 1, image.width(), image.height(),
                   whole_out.data(), nullptr);
  shard::reduce_ch(ptrs, 3, image.width(), image.height(),
                   split_out.data(), nullptr);
  EXPECT_EQ(split_out, whole_out);
}

TEST(ShardReducer, ConcatScoresPreservesOddBlockBoundaries) {
  // Blocks are staged padded-to-even; the concat must copy exact counts.
  double b0[4] = {1.5, -2.5, 3.5, 99.0};  // 3 real + 1 pad
  double b1[2] = {4.5, 98.0};             // 1 real + 1 pad
  const double* parts[2] = {b0, b1};
  int counts[2] = {3, 1};
  double out[4] = {0, 0, 0, 0};
  shard::concat_scores(parts, counts, 2, out, nullptr);
  EXPECT_EQ(out[0], 1.5);
  EXPECT_EQ(out[1], -2.5);
  EXPECT_EQ(out[2], 3.5);
  EXPECT_EQ(out[3], 4.5);
}

// ---- end to end ----

class ShardedEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new testutil::TempLibrary("cellport_shard_models.bin", 2);
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

testutil::TempLibrary* ShardedEngine::library_ = nullptr;
Dataset* ShardedEngine::dataset_ = nullptr;

TEST_F(ShardedEngine, BitExactWithMultiSpe) {
  sim::Machine m1;
  CellEngine multi(m1, library_path(), Scenario::kMultiSPE);
  sim::Machine m2;
  CellEngine sharded(m2, library_path(), Scenario::kSharded);
  for (const auto& image : dataset_->images) {
    expect_bitwise_equal(sharded.analyze(image), multi.analyze(image));
  }
}

TEST_F(ShardedEngine, BitExactOnAwkwardImageShapes) {
  // Odd dims, single-tile TX regions, heights where row splits go ragged.
  // (16x16 is the 4-level wavelet floor, so every shape stays above it.)
  const struct {
    int w, h;
  } shapes[] = {{63, 37}, {33, 17}, {96, 19}, {352, 31}, {47, 16}};
  sim::Machine m1;
  CellEngine multi(m1, library_path(), Scenario::kMultiSPE);
  sim::Machine m2;
  CellEngine sharded(m2, library_path(), Scenario::kSharded);
  for (const auto& s : shapes) {
    img::SicEncoded enc = img::sic_encode(
        img::synth_image(img::SceneKind::kGradient, 77, s.w, s.h));
    expect_bitwise_equal(sharded.analyze(enc), multi.analyze(enc));
  }
}

TEST_F(ShardedEngine, MatchesTheReferenceEngine) {
  ReferenceEngine ref(sim::cell_ppe(), library_path());
  sim::Machine machine;
  CellEngine sharded(machine, library_path(), Scenario::kSharded);
  for (const auto& image : dataset_->images) {
    testutil::expect_feature_equivalent(sharded.analyze(image),
                                        ref.analyze(image));
  }
}

TEST_F(ShardedEngine, LatencyBeatsMultiSpeByAtLeast1_4x) {
  // Per-image latency split into the part sharding targets (the SPE
  // kernel schedule: extract + reduce + detect) and the end-to-end time,
  // which also pays the PPE-serial image decode that is identical in
  // both scenarios and outside the shard plan's reach.
  auto phase_ns = [](port::Profiler& prof, const char* name) {
    for (const auto& rec : prof.report()) {
      if (rec.name == name) return rec.exclusive_ns;
    }
    return 0.0;
  };
  struct Latency {
    double total, kernels;
  };
  auto per_image = [&](Scenario scenario) {
    sim::Machine machine;
    CellEngine engine(machine, library_path(), scenario);
    engine.analyze(dataset_->images[0]);  // warm
    double pre0 = phase_ns(engine.profiler(), kPhasePreprocess);
    double t0 = machine.ppe().now_ns();
    engine.analyze(dataset_->images[1]);
    double total = machine.ppe().now_ns() - t0;
    double pre = phase_ns(engine.profiler(), kPhasePreprocess) - pre0;
    return Latency{total, total - pre};
  };
  Latency multi = per_image(Scenario::kMultiSPE);
  Latency sharded = per_image(Scenario::kSharded);
  EXPECT_GT(multi.kernels / sharded.kernels, 1.4)
      << "kernel path: multi " << multi.kernels << " ns vs sharded "
      << sharded.kernels << " ns";
  // End-to-end must still improve even with the decode amortized in.
  EXPECT_GT(multi.total / sharded.total, 1.1)
      << "end to end: multi " << multi.total << " ns vs sharded "
      << sharded.total << " ns";
}

TEST_F(ShardedEngine, PlanGaugesAreExported) {
  sim::Machine machine;
  CellEngine engine(machine, library_path(), Scenario::kSharded);
  const shard::ShardPlan& plan = engine.shard_plan();
  EXPECT_EQ(machine.metrics().gauge("shard.plan.cc").value(),
            plan.extract_shards[shard::kSlotCc]);
  engine.analyze(dataset_->images[0]);
  EXPECT_EQ(machine.metrics().counter("shard.reduces").value(), 1u);
}

// ---- composition with cellstream ----

TEST_F(ShardedEngine, StreamMatchesPerImageCalls) {
  Dataset data = make_dataset(6, 99);
  sim::Machine m1;
  CellEngine per_call(m1, library_path(), Scenario::kSharded);
  sim::Machine m2;
  CellEngine streaming(m2, library_path(), Scenario::kSharded);
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
  // Every in-flight image merged its own partials.
  EXPECT_EQ(m2.metrics().counter("shard.reduces").value(),
            data.images.size());
}

TEST_F(ShardedEngine, GuardedStreamSurvivesAShardFault) {
  Dataset data = make_dataset(4, 7);
  sim::Machine plain;
  CellEngine baseline(plain, library_path(), Scenario::kSharded);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  sim::FaultInjection f;
  f.dma_error_after = 2;  // transient fault mid-window on a CC shard SPE
  machine.spe(1).inject_fault(f);
  CellEngine engine(machine, library_path(), Scenario::kSharded,
                    kernels::kDoubleBuffer, false, guard);
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

// ---- composition with cellguard ----

TEST_F(ShardedEngine, TransientShardFaultRetriesToTheSameResult) {
  sim::Machine plain;
  CellEngine baseline(plain, library_path(), Scenario::kSharded);
  AnalysisResult want = baseline.analyze(dataset_->images[0]);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  sim::FaultInjection f;
  f.dma_error_after = 0;  // one transient DMA fault on the first shard SPE
  machine.spe(0).inject_fault(f);
  CellEngine engine(machine, library_path(), Scenario::kSharded,
                    kernels::kDoubleBuffer, false, guard);
  AnalysisResult got = engine.analyze(dataset_->images[0]);
  expect_bitwise_equal(got, want);
  EXPECT_TRUE(got.degraded.empty());  // a retry is not a degradation
}

TEST_F(ShardedEngine, ExhaustedShardFallsBackToThePpeMirrorAlone) {
  sim::Machine plain;
  CellEngine baseline(plain, library_path(), Scenario::kSharded);
  AnalysisResult want = baseline.analyze(dataset_->images[0]);

  sim::Machine machine;
  guard::GuardPolicy guard;
  guard.enabled = true;
  guard.retry.deadline_ns = 50e6;
  sim::FaultInjection f;
  f.hang_after = 0;  // SPE 0 (the CH shard) never answers again
  f.hang_sticky = true;
  f.clears_on_restart = false;
  machine.spe(0).inject_fault(f);
  CellEngine engine(machine, library_path(), Scenario::kSharded,
                    kernels::kDoubleBuffer, false, guard);
  AnalysisResult got = engine.analyze(dataset_->images[0]);
  // The mirrors recompute the faulted slice bit-exactly, so even a
  // degraded image is bitwise the healthy one.
  expect_bitwise_equal(got, want);
  ASSERT_FALSE(got.degraded.empty());
  EXPECT_EQ(got.degraded[0], "shard:color_histogram");
}

TEST_F(ShardedEngine, FaultFreeGuardedRunIsBitExactToo) {
  sim::Machine m1;
  CellEngine plain(m1, library_path(), Scenario::kSharded);
  sim::Machine m2;
  guard::GuardPolicy guard;
  guard.enabled = true;
  CellEngine guarded(m2, library_path(), Scenario::kSharded,
                     kernels::kDoubleBuffer, false, guard);
  AnalysisResult a = plain.analyze(dataset_->images[0]);
  AnalysisResult b = guarded.analyze(dataset_->images[0]);
  expect_bitwise_equal(a, b);
  EXPECT_TRUE(b.degraded.empty());
}

}  // namespace
}  // namespace cellport::marvel
