#include "img/color.h"

#include <algorithm>

namespace cellport::img {

namespace {

using sim::OpClass;

inline void chg(sim::ScalarContext* ctx, OpClass c, std::uint64_t n = 1) {
  if (ctx != nullptr) ctx->charge(c, n);
}

void charge_rgb_to_hsv(sim::ScalarContext* ctx) {
  // Op mix: 3 loads happen at the caller; here: normalization (3 mul),
  // min/max (4 cmp + branches), 2 divides, hue selection (~4 flops).
  chg(ctx, OpClass::kMul, 3);
  chg(ctx, OpClass::kIntAlu, 4);
  chg(ctx, OpClass::kBranch, 4);
  chg(ctx, OpClass::kFloatAlu, 6);
  chg(ctx, OpClass::kDiv, 2);
}

void charge_quantize_hsv(sim::ScalarContext* ctx) {
  // Op mix: threshold tests + three quantizations (mul + float->int).
  chg(ctx, OpClass::kBranch, 2);
  chg(ctx, OpClass::kMul, 3);
  chg(ctx, OpClass::kFloatAlu, 3);
  chg(ctx, OpClass::kIntAlu, 4);
}

}  // namespace

void charge_rgb_to_bin(sim::ScalarContext* ctx) {
  charge_rgb_to_hsv(ctx);
  charge_quantize_hsv(ctx);
}

Hsv rgb_to_hsv(std::uint8_t r8, std::uint8_t g8, std::uint8_t b8,
               sim::ScalarContext* ctx) {
  charge_rgb_to_hsv(ctx);

  float r = static_cast<float>(r8) * (1.0f / 255.0f);
  float g = static_cast<float>(g8) * (1.0f / 255.0f);
  float b = static_cast<float>(b8) * (1.0f / 255.0f);

  float mx = std::max(r, std::max(g, b));
  float mn = std::min(r, std::min(g, b));
  float delta = mx - mn;

  Hsv out{};
  out.v = mx;
  out.s = mx > 0.0f ? delta / mx : 0.0f;

  if (delta <= 0.0f) {
    out.h = 0.0f;
  } else if (mx == r) {
    out.h = 60.0f * ((g - b) / delta);
    if (out.h < 0.0f) out.h += 360.0f;
  } else if (mx == g) {
    out.h = 60.0f * ((b - r) / delta) + 120.0f;
  } else {
    out.h = 60.0f * ((r - g) / delta) + 240.0f;
  }
  return out;
}

int quantize_hsv(const Hsv& hsv, sim::ScalarContext* ctx) {
  charge_quantize_hsv(ctx);

  if (hsv.v < kBlackValF) return 0;
  if (hsv.s < kGraySatF) {
    int g = static_cast<int>(hsv.v * static_cast<float>(kGrayBins));
    return std::min(g, kGrayBins - 1);
  }
  int h = static_cast<int>(hsv.h * (1.0f / 20.0f)) % kHueBins;
  int s = std::min(static_cast<int>(hsv.s * kSatBins), kSatBins - 1);
  int v = std::min(static_cast<int>(hsv.v * kValBins), kValBins - 1);
  return kGrayBins + (h * kSatBins + s) * kValBins + v;
}

int rgb_to_bin(std::uint8_t r, std::uint8_t g, std::uint8_t b,
               sim::ScalarContext* ctx) {
  return quantize_hsv(rgb_to_hsv(r, g, b, ctx), ctx);
}

GrayImage quantize_image(const RgbImage& src, sim::ScalarContext* ctx) {
  GrayImage bins(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    const std::uint8_t* in = src.row(y);
    std::uint8_t* out = bins.row(y);
    for (int x = 0; x < src.width(); ++x) {
      chg(ctx, sim::OpClass::kLoad, 3);
      chg(ctx, sim::OpClass::kStore, 1);
      out[x] = static_cast<std::uint8_t>(
          rgb_to_bin(in[x * 3], in[x * 3 + 1], in[x * 3 + 2], ctx));
    }
  }
  return bins;
}

GrayImage rgb_to_gray(const RgbImage& src, sim::ScalarContext* ctx) {
  GrayImage gray(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    const std::uint8_t* in = src.row(y);
    std::uint8_t* out = gray.row(y);
    for (int x = 0; x < src.width(); ++x) {
      // BT.601 integer luma: 3 loads, 3 multiplies, 3 adds/shift, 1 store.
      chg(ctx, sim::OpClass::kLoad, 3);
      chg(ctx, sim::OpClass::kMul, 3);
      chg(ctx, sim::OpClass::kIntAlu, 3);
      chg(ctx, sim::OpClass::kStore, 1);
      unsigned luma = 77u * in[x * 3] + 150u * in[x * 3 + 1] +
                      29u * in[x * 3 + 2];
      out[x] = static_cast<std::uint8_t>(luma >> 8);
    }
  }
  return gray;
}

}  // namespace cellport::img
