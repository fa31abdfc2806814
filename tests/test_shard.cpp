// cellshard tests: shard-range arithmetic, the planner, the reducers,
// and the headline property — a kSharded CellEngine produces an
// AnalysisResult bitwise identical to the unsharded scenarios while
// finishing the image materially faster on 8 SPEs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "img/codec.h"
#include "img/synth.h"
#include "kernels/cc_kernel.h"
#include "kernels/cd_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "kernels/tx_kernel.h"
#include "marvel/cell_engine.h"
#include "marvel/dataset.h"
#include "marvel/reference_engine.h"
#include "shard/fallback.h"
#include "shard/partials.h"
#include "shard/plan.h"
#include "shard/reducer.h"
#include "sim/core_model.h"
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

// ---- reducers against the PPE fallback partials ----

TEST(ShardReducer, FallbackPartialsReduceToTheFullHistogram) {
  img::RgbImage image = testutil::seeded_image(11, 96, 70);
  // Whole image as one "shard" vs split in three: identical reductions.
  std::vector<std::uint32_t> whole(kernels::kShardChWords);
  shard::ppe_partial(shard::kSlotCh, image, {0, image.height()},
                     whole.data(), nullptr);
  std::vector<shard::Range> rows = shard::split_rows(image.height(), 3);
  std::vector<std::vector<std::uint32_t>> parts(
      3, std::vector<std::uint32_t>(kernels::kShardChWords));
  const std::uint32_t* ptrs[3];
  for (int s = 0; s < 3; ++s) {
    shard::ppe_partial(shard::kSlotCh, image,
                       rows[static_cast<std::size_t>(s)],
                       parts[static_cast<std::size_t>(s)].data(), nullptr);
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

// ---- PPE fallbacks against the SPE kernels ----
//
// A range fallback runs the SPE kernel's own range code on the PPE, so
// its raw partial must equal the kernel's byte for byte, on every shape
// the kernels special-case: the ChargeOnceRows widths (scalar tails,
// SIMD-exact and 1-pixel rows), heights below one Haar tile, tile-exact
// and tile-ragged heights, and first, middle and last ranges.

constexpr int kFallbackWidths[] = {1, 2, 15, 16, 17, 31, 33, 352};
constexpr int kFallbackHeights[] = {1, 5, 15, 32, 37};

port::KernelModule& slot_module(int slot) {
  switch (slot) {
    case shard::kSlotCh:
      return kernels::ch_module();
    case shard::kSlotCc:
      return kernels::cc_module();
    case shard::kSlotTx:
      return kernels::tx_module();
    default:
      return kernels::eh_module();
  }
}

TEST(PpeFallback, ShardPartialsMatchTheSpeKernels) {
  for (int w : kFallbackWidths) {
    for (int h : kFallbackHeights) {
      const img::RgbImage image =
          img::synth_image(img::SceneKind::kShapes, 91, w, h);
      const bool texture = w >= kernels::kTxTileRows &&
                           h >= kernels::kTxTileRows;
      for (int slot = 0; slot < shard::kNumExtract; ++slot) {
        if (slot == shard::kSlotTx && !texture) continue;
        for (const shard::Range& r :
             slot == shard::kSlotTx ? shard::split_tiles(h, 3)
                                    : shard::split_rows(h, 3)) {
          if (r.empty()) continue;
          SCOPED_TRACE(::testing::Message()
                       << w << "x" << h << " slot " << slot << " rows ["
                       << r.begin << "," << r.end << ")");
          const std::size_t bytes = shard::shard_part_bytes(slot, r);
          const std::vector<std::uint8_t> spe = testutil::run_shard_kernel(
              slot_module(slot), image, static_cast<int>(kernels::SPU_Run),
              bytes, r.begin, r.end);
          cellport::AlignedBuffer<std::uint8_t> ppe(bytes);
          shard::ppe_partial(slot, image, r, ppe.data(), nullptr);
          EXPECT_EQ(std::memcmp(ppe.data(), spe.data(), bytes), 0);
        }
      }
    }
  }
}

TEST(PpeFallback, FusedPartialsMatchTheSpeKernel) {
  for (int w : kFallbackWidths) {
    for (int h : kFallbackHeights) {
      const img::RgbImage image =
          img::synth_image(img::SceneKind::kShapes, 92, w, h);
      for (const shard::Range& r : shard::split_fused(h, 3)) {
        if (r.empty()) continue;
        SCOPED_TRACE(::testing::Message() << w << "x" << h << " rows ["
                                          << r.begin << "," << r.end << ")");
        const auto bytes = static_cast<std::size_t>(
            kernels::fused_partial_bytes(w, h, r.begin, r.end));
        const std::vector<std::uint8_t> spe = testutil::run_shard_kernel(
            kernels::ch_module(), image,
            static_cast<int>(kernels::SPU_Run_Fused), bytes, r.begin, r.end);
        cellport::AlignedBuffer<std::uint8_t> ppe(bytes);
        shard::ppe_partial_fused(image, r, ppe.data(), nullptr);
        EXPECT_EQ(std::memcmp(ppe.data(), spe.data(), bytes), 0);
      }
    }
  }
}

/// Three linear models over 13 dimensions (a scalar tail after three
/// SIMD quads), 4, 5 and 6 support vectors.
learn::ConceptModelSet linear_models() {
  learn::ConceptModelSet set;
  constexpr int kDim = 13;
  for (int m = 0; m < 3; ++m) {
    const int n = 4 + m;
    std::vector<float> svs(static_cast<std::size_t>(n * kDim));
    std::vector<float> coef(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < svs.size(); ++i) {
      svs[i] = 0.01f * static_cast<float>((i * 7 + m) % 23) - 0.1f;
    }
    for (std::size_t i = 0; i < coef.size(); ++i) {
      coef[i] = (i % 2 != 0 ? -0.5f : 0.75f) + 0.1f * static_cast<float>(m);
    }
    set.models.emplace_back("lin" + std::to_string(m),
                            learn::SvmKernelType::kLinear, 0.0f,
                            0.25f * static_cast<float>(m), kDim, svs, coef);
  }
  return set;
}

/// A feature vector of `dim` floats, padded to a quad, 16-byte aligned.
cellport::AlignedBuffer<float> feature_vector(int dim) {
  cellport::AlignedBuffer<float> x(cellport::round_up(
      static_cast<std::size_t>(dim), 4));
  for (int i = 0; i < dim; ++i) {
    x[static_cast<std::size_t>(i)] = 0.003f * static_cast<float>(i % 17);
  }
  return x;
}

TEST(PpeFallback, BlockScoresMatchTheSpeKernel) {
  const learn::ConceptModelSet sets[] = {
      learn::make_synthetic_set("cc", 166, 225, 5, 7), linear_models()};
  for (const learn::ConceptModelSet& set : sets) {
    const int dim = set.models.front().dim();
    const cellport::AlignedBuffer<float> x = feature_vector(dim);
    cellport::AlignedBuffer<kernels::DetectModelDesc> descs(set.models.size());
    for (std::size_t m = 0; m < set.models.size(); ++m) {
      const learn::SvmModel& model = set.models[m];
      descs[m].sv_ea = reinterpret_cast<std::uint64_t>(model.sv_data());
      descs[m].coef_ea = reinterpret_cast<std::uint64_t>(model.coef().data());
      descs[m].num_sv = model.num_sv();
      descs[m].sv_stride = model.sv_stride();
      descs[m].gamma = model.gamma();
      descs[m].rho = model.rho();
      descs[m].kernel_type = static_cast<std::int32_t>(model.kernel());
    }
    const auto models = static_cast<int>(set.models.size());
    for (const shard::Range& block : shard::split_rows(models, 2)) {
      SCOPED_TRACE(::testing::Message()
                   << set.feature_name << " models [" << block.begin << ","
                   << block.end << ")");
      sim::Machine machine(sim::Machine::Config{1});
      port::SPEInterface iface(kernels::cd_module());
      cellport::AlignedBuffer<double> spe(8);
      port::WrappedMessage<kernels::DetectMsg> msg;
      msg->feature_ea = reinterpret_cast<std::uint64_t>(x.data());
      msg->dim = dim;
      msg->num_models = block.count();
      msg->models_ea = reinterpret_cast<std::uint64_t>(descs.data());
      msg->scores_ea = reinterpret_cast<std::uint64_t>(spe.data());
      msg->model_begin = block.begin;
      iface.SendAndWait(static_cast<int>(kernels::SPU_Run), msg.ea());
      cellport::AlignedBuffer<double> ppe(8);
      shard::ppe_detect_block(x.data(), dim, set, block, ppe.data(),
                              nullptr);
      EXPECT_EQ(std::memcmp(ppe.data(), spe.data(),
                            static_cast<std::size_t>(block.count()) * 8),
                0);
    }
  }
}

TEST(PpeFallback, PpeChargesArePinned) {
  // The PPE clock advance of each fallback kind on fixed shapes, as the
  // earlier scalar re-implementations charged it: the charge model must
  // issue the same sequence of charges, or every faulted schedule moves.
  const struct {
    int w, h, slot, begin, end;
    double ns;
  } shards[] = {
      {33, 37, shard::kSlotCh, 5, 17, 32015.435294116734},
      {33, 37, shard::kSlotCc, 5, 17, 164608.65882352617},
      {33, 37, shard::kSlotTx, 16, 36, 7770.3529411764712},
      {33, 37, shard::kSlotEh, 5, 17, 22064.188235294117},
      {352, 240, shard::kSlotCh, 0, 30, 853744.94117704453},
      {352, 240, shard::kSlotCc, 0, 30, 3944835.0117655927},
      {352, 240, shard::kSlotTx, 0, 32, 131525.27058823529},
      {352, 240, shard::kSlotEh, 0, 30, 588378.3529411765},
  };
  for (const auto& s : shards) {
    SCOPED_TRACE(::testing::Message() << s.w << "x" << s.h << " slot "
                                      << s.slot);
    const img::RgbImage image =
        img::synth_image(img::SceneKind::kGradient, 77, s.w, s.h);
    sim::ScalarContext ppe(sim::cell_ppe());
    cellport::AlignedBuffer<std::uint8_t> out(
        shard::shard_part_bytes(s.slot, {s.begin, s.end}));
    shard::ppe_partial(s.slot, image, {s.begin, s.end}, out.data(), &ppe);
    EXPECT_EQ(ppe.now_ns(), s.ns);
  }
  const struct {
    int w, h, begin, end;
    double ns;
  } fused[] = {
      {47, 20, 0, 20, 414463.62352939107},
      {352, 240, 208, 240, 5877656.0941241616},
      {33, 37, 16, 37, 339587.29411762714},
  };
  for (const auto& f : fused) {
    SCOPED_TRACE(::testing::Message() << f.w << "x" << f.h << " fused");
    const img::RgbImage image =
        img::synth_image(img::SceneKind::kGradient, 77, f.w, f.h);
    sim::ScalarContext ppe(sim::cell_ppe());
    cellport::AlignedBuffer<std::uint8_t> out(static_cast<std::size_t>(
        kernels::fused_partial_bytes(f.w, f.h, f.begin, f.end)));
    shard::ppe_partial_fused(image, {f.begin, f.end}, out.data(), &ppe);
    EXPECT_EQ(ppe.now_ns(), f.ns);
  }
  const learn::ConceptModelSet rbf =
      learn::make_synthetic_set("cc", 166, 225, 5, 7);
  const learn::ConceptModelSet linear = linear_models();
  const struct {
    const learn::ConceptModelSet* set;
    shard::Range models;
    double ns;
  } blocks[] = {{&rbf, {1, 4}, 91380.705882352922},
                {&linear, {0, 3}, 1081.4117647058824}};
  for (const auto& b : blocks) {
    const int dim = b.set->models.front().dim();
    const cellport::AlignedBuffer<float> x = feature_vector(dim);
    cellport::AlignedBuffer<double> scores(8);
    sim::ScalarContext ppe(sim::cell_ppe());
    shard::ppe_detect_block(x.data(), dim, *b.set, b.models, scores.data(),
                            &ppe);
    EXPECT_EQ(ppe.now_ns(), b.ns) << b.set->feature_name;
  }
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

TEST_F(ShardedEngine, ExhaustedShardFallsBackToThePpeAlone) {
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
  // The PPE reruns the kernel's range code on the faulted slice, so even a
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
