#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "learn/model_store.h"
#include "learn/svm.h"
#include "support/error.h"

namespace cellport::learn {
namespace {

// ---- SvmModel decision function ----

TEST(Svm, LinearDecisionMatchesBruteForce) {
  // One support vector (1, 2) with coef 1.5, rho 0.25:
  // f(x) = 1.5 * <sv, x> - 0.25.
  std::vector<float> svs = {1.0f, 2.0f};
  std::vector<float> coef = {1.5f};
  SvmModel m("c", SvmKernelType::kLinear, 0.0f, 0.25f, 2, svs, coef);
  std::vector<float> x = {3.0f, -1.0f};
  EXPECT_NEAR(m.decision(x), 1.5 * (3.0 - 2.0) - 0.25, 1e-6);
}

TEST(Svm, RbfDecisionMatchesBruteForce) {
  std::vector<float> svs = {0.0f, 0.0f, 1.0f, 1.0f};
  std::vector<float> coef = {1.0f, -0.5f};
  float gamma = 0.7f;
  SvmModel m("c", SvmKernelType::kRbf, gamma, -0.1f, 2, svs, coef);
  std::vector<float> x = {0.5f, 0.25f};
  double d0 = 0.5 * 0.5 + 0.25 * 0.25;
  double d1 = 0.5 * 0.5 + 0.75 * 0.75;
  double expected =
      1.0 * std::exp(-gamma * d0) - 0.5 * std::exp(-gamma * d1) + 0.1;
  EXPECT_NEAR(m.decision(x), expected, 1e-6);
}

TEST(Svm, StoragePadsRowsForDma) {
  std::vector<float> svs(166 * 3, 0.5f);
  std::vector<float> coef(3, 1.0f);
  SvmModel m("c", SvmKernelType::kRbf, 1.0f, 0.0f, 166, svs, coef);
  EXPECT_EQ(m.sv_stride(), 168);
  EXPECT_TRUE(is_aligned(m.sv_data(), 16));
  EXPECT_TRUE(is_aligned(m.sv_row(1), 16));
  EXPECT_EQ(m.sv_row(2)[165], 0.5f);
}

TEST(Svm, Validation) {
  std::vector<float> svs = {1.0f};
  std::vector<float> coef = {1.0f};
  EXPECT_THROW(SvmModel("c", SvmKernelType::kRbf, 1, 0, 0, svs, coef),
               ConfigError);
  EXPECT_THROW(SvmModel("c", SvmKernelType::kRbf, 1, 0, 2, svs, coef),
               ConfigError);
  SvmModel m("c", SvmKernelType::kRbf, 1, 0, 1, svs, coef);
  std::vector<float> wrong_dim = {1.0f, 2.0f};
  EXPECT_THROW(m.decision(wrong_dim), ConfigError);
}

TEST(Svm, ChargesPerSupportVector) {
  std::vector<float> svs(32 * 10, 0.1f);
  std::vector<float> coef(10, 0.5f);
  SvmModel m("c", SvmKernelType::kRbf, 1.0f, 0.0f, 32, svs, coef);
  sim::ScalarContext ctx(sim::cell_ppe());
  std::vector<float> x(32, 0.2f);
  m.decision(x, &ctx);
  EXPECT_GE(ctx.meter().count(sim::OpClass::kMul), 320u);
  EXPECT_GT(ctx.now_ns(), 0.0);
}

// ---- synthetic model sets & library I/O ----

TEST(ModelStore, PublishedSupportVectorTotals) {
  MarvelModels m = make_marvel_models(2007);
  EXPECT_EQ(m.color_histogram.total_svs(), kChTotalSvs);
  EXPECT_EQ(m.color_correlogram.total_svs(), kCcTotalSvs);
  EXPECT_EQ(m.edge_histogram.total_svs(), kEhTotalSvs);
  EXPECT_EQ(m.texture.total_svs(), kTxTotalSvs);
  EXPECT_EQ(m.color_histogram.models.front().dim(), 166);
  EXPECT_EQ(m.edge_histogram.models.front().dim(), 64);
  EXPECT_EQ(m.texture.models.front().dim(), 12);
}

TEST(ModelStore, GenerationIsDeterministic) {
  MarvelModels a = make_marvel_models(55);
  MarvelModels b = make_marvel_models(55);
  EXPECT_EQ(a.texture.models[0].rho(), b.texture.models[0].rho());
  EXPECT_EQ(a.color_histogram.models[2].sv_row(5)[17],
            b.color_histogram.models[2].sv_row(5)[17]);
}

TEST(ModelStore, SaveLoadRoundTrip) {
  MarvelModels m = make_marvel_models(31);
  std::string path = ::testing::TempDir() + "/cellport_models.bin";
  std::size_t bytes = save_library(path, m, /*extra=*/2);
  EXPECT_GT(bytes, 400000u);  // active models alone are ~450 KB

  sim::ScalarContext ctx(sim::cell_ppe());
  MarvelModels back = load_library(path, &ctx);
  EXPECT_GT(ctx.io_ns(), 0.0);  // one-time overhead charged

  EXPECT_EQ(back.color_histogram.total_svs(), kChTotalSvs);
  EXPECT_EQ(back.texture.models.size(), m.texture.models.size());
  const SvmModel& orig = m.color_correlogram.models[1];
  const SvmModel& loaded = back.color_correlogram.models[1];
  EXPECT_EQ(loaded.concept_name(), orig.concept_name());
  EXPECT_EQ(loaded.gamma(), orig.gamma());
  EXPECT_EQ(loaded.num_sv(), orig.num_sv());
  EXPECT_EQ(loaded.sv_row(3)[42], orig.sv_row(3)[42]);
  // Decisions identical after the round trip.
  std::vector<float> x(static_cast<std::size_t>(orig.dim()), 0.005f);
  EXPECT_EQ(loaded.decision(x), orig.decision(x));
  std::remove(path.c_str());
}

TEST(ModelStore, LoadRejectsCorruptFiles) {
  std::string path = ::testing::TempDir() + "/cellport_corrupt.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite("JUNKJUNKJUNK", 1, 12, f);
    std::fclose(f);
  }
  EXPECT_THROW(load_library(path), IoError);
  std::remove(path.c_str());
  EXPECT_THROW(load_library("/nonexistent/models.bin"), IoError);
}

TEST(ModelStore, SyntheticSetSplitsUnevenTotals) {
  ConceptModelSet set = make_synthetic_set("f", 16, 100, 7, 1);
  EXPECT_EQ(set.total_svs(), 100);
  EXPECT_EQ(set.models.size(), 7u);
  int mx = 0;
  int mn = 1 << 30;
  for (const auto& m : set.models) {
    mx = std::max(mx, m.num_sv());
    mn = std::min(mn, m.num_sv());
  }
  EXPECT_LE(mx - mn, 1);  // balanced split
}

}  // namespace
}  // namespace cellport::learn
