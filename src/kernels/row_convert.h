// Shared SIMD row converters for the extraction kernels.
//
// cellfuse hoisted these out of cc_kernel.cpp / eh_kernel.cpp so the
// fused single-pass kernel reuses the EXACT same functions the standalone
// kernels run — bit-exactness between fused and per-feature extraction is
// then a property of the code structure, not of a parallel
// re-implementation (the systematic rewrite-rules approach: one pattern,
// many call sites).
//
//  - quantize_row_simd:    RGB row -> 166-bin HSV byte row (CC input)
//  - quantize_row_counted: the same, counting the bins (fused CH)
//  - ch_count_row:         RGB row -> HSV-bin histogram counts (CH)
//  - gray_row_simd:        RGB row -> BT.601 gray byte row (EH + TX input)
//
// Each row is computed on host vectors and charges the SPU cycles of its
// SIMD code once, in closed form: every charge is a whole number of
// cycles and nothing flushes the pipes inside a row, so the pending
// totals match per-instruction charging bit for bit.
#pragma once

#include <cstdint>
#include <cstring>

#include "img/color.h"
#include "kernels/common.h"
#include "kernels/hsv_simd.h"
#include "spu/spu.h"

namespace cellport::kernels {

/// First real pixel column inside a streaming ring row (16-byte aligned;
/// columns 0..15 hold the left sentinel/clamp band).
inline constexpr int kRingOrigin = 16;

// SPU cycles of the quantizer rows. Per 4-pixel group: an unaligned load
// of its 12 RGB bytes, three channel shuffles (odd) and three convtf
// (even) feeding hsv_bins_4. Per 16-pixel block: four groups, three
// shuffles packing their bins into bytes and a vst (odd), and the loop
// branch (spu_loop: 2 even, 1 odd). Per row: the zero splat of the
// channel shuffles. Per scalar-tail pixel: the scalar quantizer (20 even)
// and its three byte loads (odd).
inline constexpr double kQuantGroupEven = 3 + kHsvBins4Even;
inline constexpr double kQuantGroupOdd = 3 + kLoadOdd;
inline constexpr double kQuantBlockEven = 4 * kQuantGroupEven + 2;
inline constexpr double kQuantBlockOdd = 4 * kQuantGroupOdd + 3 + 1 + 1;
inline constexpr double kQuantRowEven = 1;
inline constexpr double kQuantTailEven = 20;
inline constexpr double kQuantTailOdd = 3;
// Histogram scatter of one bin: the scalar load (load+rotate, 2 odd) and
// the read-modify-write store (1 even, 2 odd) of its counter.
inline constexpr double kScatterEven = 1;
inline constexpr double kScatterOdd = 2 + 2;
// The fused kernel's bank scatter of one group: 4 extracts (odd), 4
// load-rotates pipelined across the banks (8 odd), 4 increments (even)
// and 4 stores with no inter-lane dependency (odd).
inline constexpr double kBankGroupEven = 4;
inline constexpr double kBankGroupOdd = 4 + 8 + 4;

/// Quantizes one RGB row into HSV-bin bytes (SIMD body + scalar tail).
/// With `banks`, the fused kernel's CH histogram is fed from the bins
/// while they are still in registers: SIMD lane k of every group counts
/// into banks[k] (four conflict-free sub-histograms) and the scalar tail
/// counts into banks[0]. Without, this is the plain quantizer the CC
/// kernel runs.
///
/// The host gathers a 16-pixel block as four word vectors of pixels 4
/// apart (vector j holds pixels j, j+4, j+8, j+12, which are SPU lane j
/// of the four groups), so the bins pack into one 16-byte store with
/// shifts and ors, and vector j counts into banks[j].
inline void quantize_row_counted(const std::uint8_t* rgb, int w,
                                 std::uint8_t* dst, const HsvConstants&,
                                 std::uint32_t* const* banks) {
  int x = 0;
  int misaligned_loads = 0;
  if (w >= 16) cellport::spu::vst_check(dst);
  for (; x + 16 <= w; x += 16) {
    const std::uint8_t* px = rgb + x * 3;
    i32x4 bins[4];
    for (int j = 0; j < 4; ++j) {
      misaligned_loads += misaligned(px + 12 * j);
      bins[j] = hsv_bins_words(rgb_words4(px + 3 * j, 4));
      if (banks != nullptr) {
        for (int k = 0; k < 4; ++k) ++banks[j][bins[j][k]];
      }
    }
    const u8x16 packed = pack_lanes(bins);
    std::memcpy(dst + x, &packed, 16);
  }
  const int blocks = x / 16;
  const int tail = w - x;
  for (; x < w; ++x) {
    const auto bin = static_cast<std::uint8_t>(
        img::rgb_to_bin(rgb[x * 3], rgb[x * 3 + 1], rgb[x * 3 + 2]));
    dst[x] = bin;
    if (banks != nullptr) ++banks[0][bin];
  }
  double even = kQuantRowEven + blocks * kQuantBlockEven +
                tail * kQuantTailEven;
  double odd = blocks * kQuantBlockOdd +
               misaligned_loads * kMisalignedLoadOdd + tail * kQuantTailOdd;
  if (banks != nullptr) {
    even += 4 * blocks * kBankGroupEven + tail * kScatterEven;
    odd += 4 * blocks * kBankGroupOdd + tail * kScatterOdd;
  }
  cellport::spu::charge_even(even);
  cellport::spu::charge_odd(odd);
}

/// Quantizes one RGB row into ring-row bins (the CC kernel's converter).
inline void quantize_row_simd(const std::uint8_t* rgb, int w,
                              std::uint8_t* dst, const HsvConstants& hsv_c) {
  quantize_row_counted(rgb, w, dst, hsv_c, nullptr);
}

// SPU cycles of the CH kernel's row. Per 4-pixel group: the quantizer
// group, a serial scatter of its four bins into the one histogram (an
// extract each, odd, plus the scatter) and the loop branch. Per
// scalar-tail pixel: the scalar quantizer (20 even) and its scatter. Per
// invocation, not per row: the zero splat of the channel shuffles.
inline constexpr double kChCallEven = 1;
inline constexpr double kChGroupEven =
    kQuantGroupEven + 4 * kScatterEven + 2;
inline constexpr double kChGroupOdd =
    kQuantGroupOdd + 4 * (1 + kScatterOdd) + 1;
inline constexpr double kChTailEven = kQuantTailEven + kScatterEven;
inline constexpr double kChTailOdd = kScatterOdd;

/// Counts one RGB row's HSV bins into `hist`, 4 pixels per group (the
/// histogram update is a scatter: inherently scalar on the SPU).
inline void ch_count_row(const std::uint8_t* rgb, int w, std::uint32_t* hist,
                         const HsvConstants&) {
  int x = 0;
  int misaligned_loads = 0;
  for (; x + 4 <= w; x += 4) {
    const std::uint8_t* px = rgb + x * 3;
    misaligned_loads += misaligned(px);
    const i32x4 bins = hsv_bins_rgb4(px);
    for (int k = 0; k < 4; ++k) ++hist[bins[k]];
  }
  const int groups = x / 4;
  const int tail = w - x;
  for (; x < w; ++x) {
    ++hist[img::rgb_to_bin(rgb[x * 3], rgb[x * 3 + 1], rgb[x * 3 + 2])];
  }
  cellport::spu::charge_even(groups * kChGroupEven + tail * kChTailEven);
  cellport::spu::charge_odd(groups * kChGroupOdd +
                            misaligned_loads * kMisalignedLoadOdd +
                            tail * kChTailOdd);
}

// SPU cycles of gray_row_simd. Per 16-pixel block, for each 8-pixel half:
// two unaligned loads covering its 24 RGB bytes, three channel unpacks of
// two shuffles each (odd), three 2-instruction halfword multiplies, two
// adds and a shift (even). Then a pack shuffle, the vst and the loop
// branch. Per row: four splats (zero and the three weights). Per
// scalar-tail pixel: 8 even and 4 odd.
inline constexpr double kGrayBlockEven = 2 * (3 * 2 + 2 + 1) + 2;
inline constexpr double kGrayBlockOdd = 2 * (2 * kLoadOdd + 3 * 2) + 1 + 1 + 1;
inline constexpr double kGrayRowEven = 4;
inline constexpr double kGrayTailEven = 8;
inline constexpr double kGrayTailOdd = 4;

/// gray = (77 r + 150 g + 29 b) >> 8 for the row's pixels, matching the
/// integer reference exactly; charges nothing. Each 16-pixel block runs
/// on halfword lanes: a gathered word's halfwords are r + 256 g and
/// b + 256 n (n the next pixel's red, or 0), so one multiply by
/// (77, 29) of the low bytes and one by (150, 0) of the high bytes give
/// 77 r + 150 g and 29 b, each below 2^16, and their sum is at most
/// 65280. The tail pixels are scalar.
inline void gray_lanes(const std::uint8_t* rgb, int w, std::uint8_t* dst) {
  const u16x8 low_weights = {77, 29, 77, 29, 77, 29, 77, 29};
  const u16x8 high_weights = {150, 0, 150, 0, 150, 0, 150, 0};
  int x = 0;
  for (; x + 16 <= w; x += 16) {
    const std::uint8_t* px = rgb + x * 3;
    i32x4 luma[4];
    for (int j = 0; j < 4; ++j) {
      const u16x8 halves = (u16x8)rgb_words4(px + 3 * j, 4);
      const u32x4 sums = (u32x4)((halves & 0xFF) * low_weights +
                                 (halves >> 8) * high_weights);
      luma[j] = (i32x4)(((sums & 0xFFFF) + (sums >> 16)) >> 8);
    }
    const u8x16 packed = pack_lanes(luma);
    std::memcpy(dst + x, &packed, 16);
  }
  for (; x < w; ++x) {
    const unsigned sum = 77u * rgb[x * 3] + 150u * rgb[x * 3 + 1] +
                         29u * rgb[x * 3 + 2];
    dst[x] = static_cast<std::uint8_t>(sum >> 8);
  }
}

/// The EH and fused kernels' gray converter: gray_lanes, charged as the
/// SPU code's 8-pixel halfword halves.
inline void gray_row_simd(const std::uint8_t* rgb, int w,
                          std::uint8_t* dst) {
  const int blocks = w / 16;
  int misaligned_loads = 0;
  if (blocks > 0) cellport::spu::vst_check(dst);
  for (int half = 0; half < 2 * blocks; ++half) {
    const std::uint8_t* p = rgb + 8 * half * 3;
    misaligned_loads += misaligned(p) + misaligned(p + 16);
  }
  gray_lanes(rgb, w, dst);
  const int tail = w - 16 * blocks;
  cellport::spu::charge_even(kGrayRowEven + blocks * kGrayBlockEven +
                             tail * kGrayTailEven);
  cellport::spu::charge_odd(blocks * kGrayBlockOdd +
                            misaligned_loads * kMisalignedLoadOdd +
                            tail * kGrayTailOdd);
}

}  // namespace cellport::kernels
