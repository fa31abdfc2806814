// 4-way SIMD HSV quantization for the SPE color kernels.
//
// This is the paper's Section 4.1 optimization recipe applied to MARVEL's
// color quantizer: the scalar reference (img/color.cpp) branches on the
// max channel per pixel; the SPU has no branch predictor (~18 cycles per
// flush), so the port replaces every branch with compare/select masks and
// keeps all constants in registers (HsvConstants, loaded once per kernel
// invocation). The arithmetic mirrors the reference's exact operation and
// rounding order — divisions included, via the correctly rounded spu_div —
// so the 4-wide port produces bit-identical bins.
//
// The lanes are computed on host vectors, with the SPU code's float
// operations in the SPU code's order; the row converters that call
// hsv_bins_4 charge its cycles (kHsvBins4Even) once per row. The SPU code
// converts with the saturating spu_convts; the host converts with plain
// truncation, which agrees on every finite in-range lane (see
// hsv_bins_4).
#pragma once

#include <cstdint>

#include "img/color.h"
#include "kernels/common.h"
#include "spu/spu.h"

namespace cellport::kernels {

/// The SPU quantizer's constant registers: 18 splats (inv255, the black
/// and gray thresholds, 0/3/4/60/120/240/360/(1/20) floats, an all-ones
/// mask and the 0/2/3/4/17/18 integers), made once per kernel invocation
/// instead of once per pixel group. The host lanes fold the constants
/// into their code, so a loaded HsvConstants carries no values: the
/// quantizers take it to show that the kernel paid for the load.
struct HsvConstants {
  static constexpr double kSplats = 18;

  static HsvConstants load() {
    cellport::spu::charge_even(kSplats);
    return {};
  }
};

// Even-pipe instructions of one hsv_bins_4 call, in the order it issues
// them: 3 normalizing mul; max/min by 4 cmpgt+sel; the delta sub; the
// black cmpgt; the saturation div (5); the gray cmpgt; the gray bin (mul,
// convts, cmpgt, sel); the hue-sector masks (2 cmpeq, xor, and); the
// sector numerator (3 sub, 2 sel); the hue div (5); the hue base (2 sel);
// 60*t + base (mul, add); the 360 wrap (cmpgt, add, sel); the hue index
// (mul, convts, cmpgt, and, sub); the saturation and value indices (mul,
// convts, cmpgt, sel each); 9h and 3s (sl+add each); the bin sum (3 add);
// the gray and black selects (2 sel).
inline constexpr double kHsvBins4Even = 3 + 8 + 1 + 1 + 5 + 1 + 4 + 4 +
                                        5 + 5 + 2 + 2 + 3 + 5 + 4 + 4 +
                                        4 + 3 + 2;
static_assert(kHsvBins4Even == 66);

/// Quantizes 4 pixels' RGB bytes (as float lanes in [0,255]) into their
/// 166-bin HSV indices.
///
/// Every arithmetic step mirrors the scalar reference's operation and
/// rounding order exactly (same constants, same mul/add sequencing,
/// correctly rounded division), so the SIMD port is bit-identical to
/// img/color.cpp — only the control flow changed (branches to masks).
inline i32x4 hsv_bins_4(f32x4 r8, f32x4 g8, f32x4 b8) {
  const f32x4 r = r8 * (1.0f / 255.0f);
  const f32x4 g = g8 * (1.0f / 255.0f);
  const f32x4 b = b8 * (1.0f / 255.0f);

  // v = max(r,g,b), mn = min(r,g,b) — branch-free. (r > g ? r : g picks
  // the same value as the SPU's g > r ? g : r; its own mask lets the host
  // lower each select to one max or min.)
  f32x4 v = r > g ? r : g;
  v = b > v ? b : v;
  f32x4 mn = g > r ? r : g;
  mn = mn > b ? b : mn;
  const f32x4 delta = v - mn;

  // black: v < 0.08. gray: s = delta/v < 0.10 (v == 0 lanes produce
  // NaN, whose compare is false — they are already black).
  const i32x4 black_m = img::kBlackValF > v;
  f32x4 s = delta / v;
  const i32x4 gray_m = img::kGraySatF > s;

  // Gray bin: min(int(v*4), 3); v*4 lies in [0, 4]. The host clamps
  // before it converts, which gives the same integer on such a lane
  // (as do the index clamps below).
  const f32x4 v4 = v * 4.0f;
  const i32x4 gray_bin = __builtin_convertvector(v4 < 3.0f ? v4 : 3.0f, i32x4);

  // Hue sector masks, replacing the reference's if-chain:
  // mr: v==r (checked first), mg: v==g and not mr; b is the remainder.
  const i32x4 mr = v == r;
  const i32x4 mg = (v == g) & ~mr;

  // t = sector numerator / delta; h = 60*t + {0,120,240}, +360 wrap.
  const f32x4 diff = mr ? g - b : (mg ? b - r : r - g);
  const f32x4 t = diff / delta;
  const f32x4 hbase = mr ? 0.0f : (mg ? 120.0f : 240.0f);
  f32x4 h = t * 60.0f + hbase;
  h = 0.0f > h ? h + 360.0f : h;

  // The only non-finite values are NaN lanes of h and s. delta == 0 makes
  // t = 0/0, and v == 0 (which implies delta == 0) makes s = 0/0. Such a
  // lane is black (v == 0) or gray (s == 0 < 0.10), so the selects at the
  // end overwrite its chroma bin. Every other lane is finite: |t| <= 1,
  // so h lies in [0, 360] and s in (0, 1]. Zeroing the delta == 0 lanes
  // (one compare, one and per vector) keeps NaN out of the truncating
  // conversions, which then agree with the SPU's saturating spu_convts on
  // every lane. HsvQuantizer.EveryRgbTripleMatchesReference checks all
  // 2^24 RGB triples against the scalar reference.
  const i32x4 chromatic = delta > 0.0f;
  h = (f32x4)((i32x4)h & chromatic);
  s = (f32x4)((i32x4)s & chromatic);

  // h_idx = int(h * (1/20)) % 18 (the wrap only ever hits 18 -> 0).
  i32x4 h_idx = __builtin_convertvector(h * (1.0f / 20.0f), i32x4);
  h_idx = h_idx > 17 ? h_idx - 18 : h_idx;

  // s_idx = min(int(s*3), 2), v_idx = min(int(v*3), 2); v*3 lies in
  // [0, 3].
  const f32x4 s3 = s * 3.0f;
  const i32x4 s_idx = __builtin_convertvector(s3 < 2.0f ? s3 : 2.0f, i32x4);
  const f32x4 v3 = v * 3.0f;
  const i32x4 v_idx = __builtin_convertvector(v3 < 2.0f ? v3 : 2.0f, i32x4);

  // bin = 4 + 9*h + 3*s + v. The indices are small, so no lane overflows.
  const i32x4 chroma = 9 * h_idx + 3 * s_idx + v_idx + 4;
  return black_m ? 0 : (gray_m ? gray_bin : chroma);
}

/// Bins of 4 pixels gathered by rgb_words4: the SPU code shuffles each
/// channel into word lanes and converts them to floats.
inline i32x4 hsv_bins_words(i32x4 words) {
  return hsv_bins_4(__builtin_convertvector(words & 0xFF, f32x4),
                    __builtin_convertvector((words >> 8) & 0xFF, f32x4),
                    __builtin_convertvector((words >> 16) & 0xFF, f32x4));
}

/// Bins of the 4 interleaved RGB pixels at `px` (12 bytes).
inline i32x4 hsv_bins_rgb4(const std::uint8_t* px) {
  return hsv_bins_words(rgb_words4(px, 1));
}

}  // namespace cellport::kernels
