// Shared correlogram window machinery (hoisted out of cc_kernel.cpp for
// cellfuse): the ring-buffer state and the window accumulation that
// produces one output row. The fused
// kernel and the standalone CC kernel run the exact same produce_row, so
// their same/possible counts are bit-identical by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "features/color_correlogram.h"
#include "kernels/row_convert.h"
#include "spu/spu.h"

namespace cellport::kernels {

inline constexpr int kCcRadius = features::kCorrWindowRadius;  // 8
inline constexpr int kCcBlockRows = 12;
/// Window + one block of quantized rows resident in the LS.
inline constexpr int kCcRingRows = 2 * kCcRadius + 1 + kCcBlockRows;
/// 0xFF can never equal a real bin (bins are 0..165), so border windows
/// simply fail to match — no branches in the SIMD loop.
inline constexpr std::uint8_t kCcSentinel = 0xFF;

struct CcState {
  std::uint8_t* ring[kCcRingRows];
  int row_bytes = 0;
  std::uint32_t* same;
  std::uint32_t* possible;
  std::uint16_t* cols_clamped;  // per-x clamped window width
};

// SPU cycles of cc_produce_row, charged in closed form. Per 16-pixel
// block: the centre vld (odd), two accumulator splats (even) and the loop
// branch (spu_loop: 2 even, 1 odd). Per window row of a block: three vld
// (odd) and a byte-counter splat (even); per window offset one shuffle
// (odd) plus a cmpeq and a sub (even); the widening of the byte counts
// into the halfword accumulators, a zero splat (even), two shuffles (odd)
// and two adds (even); the loop branch. Per centre lane: an extract (odd),
// sop(2), four scalar loads (2 odd each) and two scalar stores (1 even,
// 2 odd each).
inline constexpr int kCcOffsets = 2 * kCcRadius + 1;
inline constexpr double kCcBlockEven = 2 + 2;
inline constexpr double kCcBlockOdd = 1 + 1;
inline constexpr double kCcWindowRowEven = 1 + 2 * kCcOffsets + 3 + 2;
inline constexpr double kCcWindowRowOdd = 3 + kCcOffsets + 2 + 1;
inline constexpr double kCcLaneEven = 2 + 2 * 1;
inline constexpr double kCcLaneOdd = 1 + 4 * 2 + 2 * 2;

/// Produces one output row y from the ring buffer. The counts are computed
/// on host vectors; the cycles of the SPU sequence above are charged once
/// per row. Every charge is a whole number of cycles and nothing flushes
/// the pipes inside a row, so the pending totals match the per-instruction
/// charging bit for bit.
inline void cc_produce_row(const CcState& st, int y, int w, int h) {
  typedef std::uint8_t u8x16 __attribute__((vector_size(16)));
  typedef std::uint16_t u16x8 __attribute__((vector_size(16)));
  const auto load = [](const std::uint8_t* p) {
    u8x16 v;
    std::memcpy(&v, p, 16);
    return v;
  };
  if (w <= 0) return;
  const int y0 = std::max(0, y - kCcRadius);
  const int y1 = std::min(h - 1, y + kCcRadius);
  const int rows = y1 - y0 + 1;
  const std::uint8_t* center_row = st.ring[y % kCcRingRows] + kRingOrigin;
  // The SPU code reads each ring row with aligned quadword loads.
  cellport::spu::vld_check(center_row);
  for (int yy = y0; yy <= y1; ++yy) {
    cellport::spu::vld_check(st.ring[yy % kCcRingRows] + kRingOrigin);
  }

  for (int x0 = 0; x0 < w; x0 += 16) {
    const u8x16 centers = load(center_row + x0);
    // Window counts of the even and the odd centre lanes.
    u16x8 even = {};
    u16x8 odd = {};
    for (int yy = y0; yy <= y1; ++yy) {
      const std::uint8_t* nrow =
          st.ring[yy % kCcRingRows] + kRingOrigin + x0;
      // A compare mask is 0xFF (= -1) per matching byte, so subtracting
      // it counts the match. The sentinel bands match no centre.
      u8x16 row_acc = {};
      for (int dx = -kCcRadius; dx <= kCcRadius; ++dx) {
        row_acc -= (u8x16)(load(nrow + dx) == centers);
      }
      even += (u16x8)row_acc & 0xFF;
      odd += (u16x8)row_acc >> 8;
    }
    const int lanes = std::min(16, w - x0);
    for (int lane = 0; lane < lanes; ++lane) {
      const std::uint32_t cnt = lane % 2 ? odd[lane / 2] : even[lane / 2];
      const std::uint8_t bin = center_row[x0 + lane];
      const std::uint32_t area = static_cast<std::uint32_t>(rows) *
                                 st.cols_clamped[x0 + lane];
      st.same[bin] += cnt - 1;
      st.possible[bin] += area - 1;
    }
  }
  const int blocks = (w + 15) / 16;
  cellport::spu::charge_even(
      blocks * (kCcBlockEven + kCcWindowRowEven * rows) + kCcLaneEven * w);
  cellport::spu::charge_odd(
      blocks * (kCcBlockOdd + kCcWindowRowOdd * rows) + kCcLaneOdd * w);
}

}  // namespace cellport::kernels
