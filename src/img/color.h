// Color-space conversion and the 166-bin HSV quantization used by MARVEL.
//
// MARVEL computes its color features on the HSV representation quantized
// into 166 bins (Smith & Chang, "Tools and techniques for color image
// retrieval": 18 hues x 3 saturations x 3 values = 162 chromatic bins plus
// 4 gray bins). Every conversion optionally charges its operation mix to a
// ScalarContext so the same code serves as the instrumented reference
// implementation on Desktop / Laptop / PPE models.
#pragma once

#include <cstdint>

#include "img/image.h"
#include "sim/scalar_context.h"

namespace cellport::img {

/// Number of quantized HSV bins (MARVEL's color features use 166).
inline constexpr int kHsvBins = 166;
inline constexpr int kGrayBins = 4;
inline constexpr int kHueBins = 18;
inline constexpr int kSatBins = 3;
inline constexpr int kValBins = 3;

/// Achromatic thresholds of the quantizer (shared with the SPE port so
/// both implementations agree): pixels with v below kBlackValF are black;
/// pixels with saturation below kGraySatF fall into the gray bins.
inline constexpr float kGraySatF = 0.10f;
inline constexpr float kBlackValF = 0.08f;

struct Hsv {
  float h;  // [0, 360)
  float s;  // [0, 1]
  float v;  // [0, 1]
};

/// RGB (8-bit) -> HSV. Charges the conversion's op mix when ctx != null.
Hsv rgb_to_hsv(std::uint8_t r, std::uint8_t g, std::uint8_t b,
               sim::ScalarContext* ctx = nullptr);

/// HSV -> one of the 166 bins. Bins 0..3 are achromatic (by value);
/// bins 4..165 are h_idx*9 + s_idx*3 + v_idx + 4.
int quantize_hsv(const Hsv& hsv, sim::ScalarContext* ctx = nullptr);

/// Convenience: RGB pixel straight to its HSV bin.
int rgb_to_bin(std::uint8_t r, std::uint8_t g, std::uint8_t b,
               sim::ScalarContext* ctx = nullptr);

/// Charges rgb_to_bin's op mix without converting a pixel: the same
/// calls, in the same order, as one rgb_to_bin with `ctx`.
void charge_rgb_to_bin(sim::ScalarContext* ctx);

/// Quantizes a whole image into its per-pixel bin map (used by the
/// correlogram, whose 54% coverage includes this pass).
GrayImage quantize_image(const RgbImage& src,
                         sim::ScalarContext* ctx = nullptr);

/// RGB -> luma (ITU-R BT.601 integer approximation), the first filter of
/// the edge-histogram chain.
GrayImage rgb_to_gray(const RgbImage& src,
                      sim::ScalarContext* ctx = nullptr);

}  // namespace cellport::img
