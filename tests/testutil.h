// Shared helpers for the gtest suites: temporary model libraries,
// seeded synthetic inputs, vector digests, and the feature-equivalence
// assertion whose tolerances match cellcheck's differential oracle
// (src/check/oracle.h) — the two test tiers must agree on what
// "equivalent" means or a bug could pass one and fail the other.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "img/synth.h"
#include "kernels/messages.h"
#include "learn/model_store.h"
#include "marvel/result.h"
#include "port/message.h"
#include "port/spe_interface.h"
#include "sim/machine.h"
#include "support/aligned.h"

namespace cellport::testutil {

/// A model library written to gtest's temp dir, removed on destruction.
/// `extra_concepts` < 0 writes the full library (34 inactive concepts
/// per feature, the paper's 166-model store); small values keep
/// model-load time negligible for tests that only need valid models.
class TempLibrary {
 public:
  explicit TempLibrary(const std::string& name, int extra_concepts = -1)
      : path_(::testing::TempDir() + "/" + name) {
    learn::MarvelModels models = learn::make_marvel_models();
    if (extra_concepts < 0) {
      learn::save_library(path_, models);
    } else {
      learn::save_library(path_, models,
                          static_cast<std::size_t>(extra_concepts));
    }
  }
  ~TempLibrary() { std::remove(path_.c_str()); }
  TempLibrary(const TempLibrary&) = delete;
  TempLibrary& operator=(const TempLibrary&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline double l1_distance(const std::vector<float>& a,
                          const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0;
  std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    d += std::abs(static_cast<double>(a[i]) - b[i]);
  }
  return d;
}

/// Order-independent summary of a feature vector, stable enough to pin
/// in golden files without listing every element.
struct VectorDigest {
  double sum = 0;
  std::size_t argmax = 0;
  double max = 0;
  double v0 = 0;
};

inline VectorDigest digest(const std::vector<float>& values) {
  VectorDigest d;
  d.max = -1.0;
  d.v0 = values.empty() ? 0.0 : values[0];
  for (std::size_t i = 0; i < values.size(); ++i) {
    d.sum += values[i];
    if (values[i] > d.max) {
      d.max = values[i];
      d.argmax = i;
    }
  }
  return d;
}

/// The Cell-vs-reference equivalence contract (tolerances documented in
/// src/check/oracle.h): color kernels bit-exact, edge histogram within
/// an L1 budget, texture and detection scores element-wise close.
inline void expect_feature_equivalent(const marvel::AnalysisResult& cell,
                                      const marvel::AnalysisResult& ref) {
  EXPECT_EQ(cell.color_histogram.values, ref.color_histogram.values);
  EXPECT_EQ(cell.color_correlogram.values, ref.color_correlogram.values);
  EXPECT_LT(l1_distance(cell.edge_histogram.values,
                        ref.edge_histogram.values),
            2e-3);
  ASSERT_EQ(cell.texture.values.size(), ref.texture.values.size());
  for (std::size_t i = 0; i < cell.texture.values.size(); ++i) {
    EXPECT_NEAR(cell.texture.values[i], ref.texture.values[i], 1e-3);
  }
  ASSERT_EQ(cell.cc_detect.values.size(), ref.cc_detect.values.size());
  for (std::size_t i = 0; i < cell.cc_detect.values.size(); ++i) {
    EXPECT_NEAR(cell.cc_detect.values[i], ref.cc_detect.values[i], 1e-2);
  }
}

/// Every feature vector and score array of two results compares equal
/// bit for bit (the contract between dispatch paths and strategies).
inline void expect_bitwise_equal(const marvel::AnalysisResult& a,
                                 const marvel::AnalysisResult& b) {
  EXPECT_EQ(a.color_histogram.values, b.color_histogram.values);
  EXPECT_EQ(a.color_correlogram.values, b.color_correlogram.values);
  EXPECT_EQ(a.texture.values, b.texture.values);
  EXPECT_EQ(a.edge_histogram.values, b.edge_histogram.values);
  EXPECT_EQ(a.ch_detect.values, b.ch_detect.values);
  EXPECT_EQ(a.cc_detect.values, b.cc_detect.values);
  EXPECT_EQ(a.tx_detect.values, b.tx_detect.values);
  EXPECT_EQ(a.eh_detect.values, b.eh_detect.values);
}

/// Seeded synthetic image, cycling through scene kinds so suites can
/// ask for "image i" without repeating the kind/seed plumbing.
inline img::RgbImage seeded_image(std::uint64_t seed, int width = 64,
                                  int height = 48) {
  auto kind = static_cast<img::SceneKind>(seed % 5);
  return img::synth_image(kind, seed, width, height);
}

/// Runs `opcode` of `mod` on a one-SPE machine in shard mode over
/// [row_begin, row_end) and returns the raw partial bytes.
inline std::vector<std::uint8_t> run_shard_kernel(
    port::KernelModule& mod, const img::RgbImage& image, int opcode,
    std::size_t bytes, int row_begin, int row_end,
    sim::SimTime* busy_ns = nullptr) {
  sim::Machine machine(sim::Machine::Config{1});
  port::SPEInterface iface(mod);
  cellport::AlignedBuffer<std::uint8_t> out(cellport::round_up(bytes, 16));
  port::WrappedMessage<kernels::ImageMsg> msg;
  msg->pixels_ea = reinterpret_cast<std::uint64_t>(image.data());
  msg->width = image.width();
  msg->height = image.height();
  msg->stride = image.stride();
  msg->buffering = kernels::kTripleBuffer;
  msg->out_ea = reinterpret_cast<std::uint64_t>(out.data());
  msg->row_begin = row_begin;
  msg->row_end = row_end;
  iface.SendAndWait(opcode, msg.ea());
  if (busy_ns != nullptr) *busy_ns = iface.spe().busy_ns();
  return {out.data(), out.data() + bytes};
}

}  // namespace cellport::testutil
