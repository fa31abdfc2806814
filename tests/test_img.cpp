#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <tuple>

#include "img/codec.h"
#include "img/color.h"
#include "img/convolve.h"
#include "img/huffman.h"
#include "img/image.h"
#include "img/ppm.h"
#include "img/slice.h"
#include "img/synth.h"
#include "img/wavelet.h"
#include "support/error.h"
#include "support/rng.h"

namespace cellport::img {
namespace {

// ---- containers ----

TEST(Image, StridesAreDmaLegal) {
  RgbImage rgb(352, 240);
  EXPECT_EQ(rgb.stride() % 16, 0);
  EXPECT_GE(rgb.stride(), 352 * 3);
  EXPECT_TRUE(is_aligned(rgb.data(), 128));
  GrayImage gray(333, 10);
  EXPECT_EQ(gray.stride() % 16, 0);
  FloatImage f(7, 3);
  EXPECT_EQ((f.stride() * sizeof(float)) % 16, 0u);
}

TEST(Image, PixelAccess) {
  RgbImage img(8, 4);
  img.at(3, 2, 1) = 77;
  EXPECT_EQ(img.at(3, 2, 1), 77);
  EXPECT_EQ(img.row(2)[3 * 3 + 1], 77);
  EXPECT_THROW(RgbImage(0, 5), ConfigError);
}

// ---- color ----

TEST(Color, HsvKnownValues) {
  Hsv red = rgb_to_hsv(255, 0, 0);
  EXPECT_NEAR(red.h, 0.0f, 1e-4);
  EXPECT_NEAR(red.s, 1.0f, 1e-6);
  EXPECT_NEAR(red.v, 1.0f, 1e-6);
  Hsv green = rgb_to_hsv(0, 255, 0);
  EXPECT_NEAR(green.h, 120.0f, 1e-4);
  Hsv blue = rgb_to_hsv(0, 0, 255);
  EXPECT_NEAR(blue.h, 240.0f, 1e-4);
  Hsv gray = rgb_to_hsv(128, 128, 128);
  EXPECT_EQ(gray.s, 0.0f);
  EXPECT_NEAR(gray.v, 128.0f / 255.0f, 1e-6);
}

TEST(Color, QuantizerCoversExactly166Bins) {
  // Black, grays, and chromatic bins all reachable; never out of range.
  EXPECT_EQ(rgb_to_bin(0, 0, 0), 0);
  int gray_bin = rgb_to_bin(200, 200, 200);
  EXPECT_GE(gray_bin, 0);
  EXPECT_LT(gray_bin, kGrayBins);
  int red_bin = rgb_to_bin(255, 0, 0);
  EXPECT_GE(red_bin, kGrayBins);
  EXPECT_LT(red_bin, kHsvBins);
}

TEST(Color, QuantizerRangeProperty) {
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    int bin = rgb_to_bin(static_cast<std::uint8_t>(rng.next_below(256)),
                         static_cast<std::uint8_t>(rng.next_below(256)),
                         static_cast<std::uint8_t>(rng.next_below(256)));
    ASSERT_GE(bin, 0);
    ASSERT_LT(bin, kHsvBins);
  }
}

TEST(Color, GrayLumaWeights) {
  GrayImage g = [] {
    RgbImage img(2, 1);
    img.at(0, 0, 0) = 255;  // pure red
    img.at(1, 0, 1) = 255;  // pure green
    return rgb_to_gray(img);
  }();
  EXPECT_EQ(g.at(0, 0), (77 * 255) >> 8);
  EXPECT_EQ(g.at(1, 0), (150 * 255) >> 8);
}

TEST(Color, QuantizeImageMatchesPerPixel) {
  RgbImage img = synth_image(SceneKind::kShapes, 99, 64, 48);
  GrayImage bins = quantize_image(img);
  for (int y = 0; y < img.height(); y += 7) {
    for (int x = 0; x < img.width(); x += 5) {
      EXPECT_EQ(bins.at(x, y), rgb_to_bin(img.at(x, y, 0), img.at(x, y, 1),
                                          img.at(x, y, 2)));
    }
  }
}

// ---- synth ----

TEST(Synth, DeterministicAndDistinct) {
  RgbImage a = synth_image(SceneKind::kTexture, 7, 64, 48);
  RgbImage b = synth_image(SceneKind::kTexture, 7, 64, 48);
  RgbImage c = synth_image(SceneKind::kTexture, 8, 64, 48);
  int same_ab = 0;
  int same_ac = 0;
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (a.at(x, y, 0) == b.at(x, y, 0)) ++same_ab;
      if (a.at(x, y, 0) == c.at(x, y, 0)) ++same_ac;
    }
  }
  EXPECT_EQ(same_ab, 64 * 48);
  EXPECT_LT(same_ac, 64 * 48 / 2);
}

TEST(Synth, SetCyclesScenes) {
  auto set = synth_image_set(7, 1, 32, 32);
  EXPECT_EQ(set.size(), 7u);
  for (const auto& im : set) {
    EXPECT_EQ(im.width(), 32);
    EXPECT_EQ(im.height(), 32);
  }
}

// ---- PPM ----

TEST(Ppm, RoundTrip) {
  RgbImage img = synth_image(SceneKind::kGradient, 3, 40, 30);
  std::string path = ::testing::TempDir() + "/cellport_test.ppm";
  write_ppm(img, path);
  RgbImage back = read_ppm(path);
  ASSERT_TRUE(img.same_dims(back));
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      for (int c = 0; c < 3; ++c) {
        ASSERT_EQ(img.at(x, y, c), back.at(x, y, c));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Ppm, PgmRoundTripAndErrors) {
  GrayImage img(16, 9);
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 16; ++x) {
      img.at(x, y) = static_cast<std::uint8_t>(x * y);
    }
  }
  std::string path = ::testing::TempDir() + "/cellport_test.pgm";
  write_pgm(img, path);
  GrayImage back = read_pgm(path);
  EXPECT_EQ(back.at(15, 8), img.at(15, 8));
  EXPECT_THROW(read_ppm(path), IoError);  // wrong magic
  EXPECT_THROW(read_ppm("/nonexistent/file.ppm"), IoError);
  std::remove(path.c_str());
}

// ---- strict in-memory P6 parsing (shared by PPE decode and cellfeed) ----

// Helper: a P6 stream with the given header text and exactly the pixel
// bytes the header's geometry implies (all zero).
std::vector<std::uint8_t> p6_stream(const std::string& header, int w,
                                    int h) {
  std::vector<std::uint8_t> bytes(header.begin(), header.end());
  bytes.resize(bytes.size() + static_cast<std::size_t>(w) * 3 * h, 0);
  return bytes;
}

TEST(PpmStrict, CommentTerminatesTheCurrentToken) {
  // "12#c\n34" is the two tokens 12 and 34 — a parser that glues them
  // into 1234 decodes a wildly wrong geometry.
  auto bytes = p6_stream("P6\n12#c\n34\n255\n", 12, 34);
  PpmHeader hdr = parse_p6_header(bytes.data(), bytes.size());
  EXPECT_EQ(hdr.width, 12);
  EXPECT_EQ(hdr.height, 34);
  RgbImage image = decode_p6(bytes.data(), bytes.size());
  EXPECT_EQ(image.width(), 12);
  EXPECT_EQ(image.height(), 34);
}

TEST(PpmStrict, CommentsAnywhereInTheHeaderParse) {
  auto bytes =
      p6_stream("P6\n# a\n# b\n4 # cols\n2\n# almost\n255\n", 4, 2);
  PpmHeader hdr = parse_p6_header(bytes.data(), bytes.size());
  EXPECT_EQ(hdr.width, 4);
  EXPECT_EQ(hdr.height, 2);
}

TEST(PpmStrict, RejectsNonNumericTokensAsIoError) {
  // The contract: malformed numbers raise IoError — never a
  // std::invalid_argument escaping from std::stoi.
  for (const char* header :
       {"P6\nab 2\n255\n", "P6\n4 -2\n255\n", "P6\n4 2\n0xff\n",
        "P6\n12345678 2\n255\n", "P6\n 2\n255\n\n"}) {
    auto bytes = p6_stream(header, 4, 2);
    EXPECT_THROW(parse_p6_header(bytes.data(), bytes.size()),
                 cellport::IoError)
        << header;
    EXPECT_THROW(decode_p6(bytes.data(), bytes.size()), cellport::IoError)
        << header;
  }
}

TEST(PpmStrict, RejectsMaxvalOtherThan255) {
  for (const char* header : {"P6\n4 2\n65535\n", "P6\n4 2\n254\n",
                             "P6\n4 2\n1\n", "P6\n4 2\n0\n"}) {
    auto bytes = p6_stream(header, 4, 2);
    EXPECT_THROW(parse_p6_header(bytes.data(), bytes.size()),
                 cellport::IoError)
        << header;
    EXPECT_THROW(decode_p6(bytes.data(), bytes.size()), cellport::IoError)
        << header;
  }
}

TEST(PpmStrict, RejectsTruncatedPixelData) {
  auto bytes = p6_stream("P6\n4 2\n255\n", 4, 2);
  bytes.pop_back();
  EXPECT_THROW(decode_p6(bytes.data(), bytes.size()), cellport::IoError);
  // Trailing bytes beyond the payload are legal (the feed carrier's
  // 15-byte DMA slack depends on it).
  auto padded = p6_stream("P6\n4 2\n255\n", 4, 2);
  padded.resize(padded.size() + 15, 0);
  EXPECT_NO_THROW(decode_p6(padded.data(), padded.size()));
}

TEST(PpmStrict, HeaderAcceptRejectMatchesFullDecode) {
  // ONE strict parser serves the PPE decoder and the feed header parse:
  // for any header, the two paths must agree on accept vs reject.
  for (const char* header :
       {"P6\n4 2\n255\n", "P6\n12#c\n34\n255\n", "P6\n#x\n4 2\n255\n",
        "P6\nab 2\n255\n", "P6\n4 2\n254\n", "P5\n4 2\n255\n",
        "P6\n0 2\n255\n", "P6\n4\n2 255\n"}) {
    auto bytes = p6_stream(header, 16, 34);  // oversized payload: legal
    bool header_ok = true;
    bool decode_ok = true;
    try {
      parse_p6_header(bytes.data(), bytes.size());
    } catch (const cellport::IoError&) {
      header_ok = false;
    }
    try {
      decode_p6(bytes.data(), bytes.size());
    } catch (const cellport::IoError&) {
      decode_ok = false;
    }
    EXPECT_EQ(header_ok, decode_ok) << header;
  }
}

TEST(PpmStrict, FeedCarrierGuaranteesDmaSlack) {
  // ppm_encode's carrier contract: >= 15 readable bytes before the
  // pixels (the comment-padded header) and 15 zero tail bytes, so
  // cellfeed's quadword-anchored gather windows never leave the
  // allocation.
  RgbImage image = synth_image(SceneKind::kGradient, 5, 7, 3);
  SicEncoded enc = ppm_encode(image);
  ASSERT_TRUE(is_ppm(enc));
  PpmHeader hdr = parse_p6_header(enc.bytes.data(), enc.bytes.size());
  EXPECT_GE(hdr.pixel_offset, 15u);
  const std::size_t payload = static_cast<std::size_t>(hdr.width) * 3 *
                              static_cast<std::size_t>(hdr.height);
  ASSERT_GE(enc.bytes.size(), hdr.pixel_offset + payload + 15);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(enc.bytes[hdr.pixel_offset + payload + i], 0u);
  }
  // And the carrier still decodes bit-exactly.
  RgbImage back = sic_decode(enc);
  ASSERT_TRUE(back.same_dims(image));
  for (int y = 0; y < image.height(); ++y) {
    EXPECT_EQ(std::memcmp(back.row(y), image.row(y),
                          static_cast<std::size_t>(image.width()) * 3),
              0);
  }
}

// ---- codec ----

class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<SceneKind, int>> {};

TEST_P(CodecRoundTrip, PsnrWithinQualityBand) {
  auto [scene, quality] = GetParam();
  RgbImage img = synth_image(scene, 11);
  SicEncoded enc = sic_encode(img, quality);
  RgbImage dec = sic_decode(enc);
  ASSERT_TRUE(img.same_dims(dec));
  double p = psnr(img, dec);
  EXPECT_GT(p, quality >= 75 ? 30.0 : 27.0)
      << "scene " << static_cast<int>(scene) << " q" << quality;
  // Compression actually compresses.
  EXPECT_LT(enc.bytes.size(), img.bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Scenes, CodecRoundTrip,
    ::testing::Combine(::testing::Values(SceneKind::kGradient,
                                         SceneKind::kCheckers,
                                         SceneKind::kTexture,
                                         SceneKind::kShapes,
                                         SceneKind::kStripes),
                       ::testing::Values(60, 85)));

TEST(Codec, HigherQualityNeverHurtsPsnr) {
  RgbImage img = synth_image(SceneKind::kShapes, 13);
  double p60 = psnr(img, sic_decode(sic_encode(img, 60)));
  double p90 = psnr(img, sic_decode(sic_encode(img, 90)));
  EXPECT_GE(p90, p60);
}

TEST(Codec, OddDimensionsRoundTrip) {
  RgbImage img = synth_image(SceneKind::kTexture, 17, 37, 23);
  RgbImage dec = sic_decode(sic_encode(img, 80));
  EXPECT_EQ(dec.width(), 37);
  EXPECT_EQ(dec.height(), 23);
}

TEST(Codec, RejectsGarbage) {
  SicEncoded bad;
  bad.bytes = {'X', 'X', 'X', 'X', 1, 2, 3};
  EXPECT_THROW(sic_decode(bad), IoError);
  SicEncoded truncated = sic_encode(synth_image(SceneKind::kGradient, 1),
                                    80);
  truncated.bytes.resize(truncated.bytes.size() / 2);
  EXPECT_THROW(sic_decode(truncated), IoError);
}

TEST(Codec, RejectsOversizedHeadersWithoutAllocating) {
  // Headers that would size a huge image or Huffman buffer throw IoError
  // from the header checks, before any allocation or charge.
  auto expect_rejected_uncharged = [](const SicEncoded& enc) {
    sim::ScalarContext ctx(sim::cell_ppe());
    EXPECT_THROW(sic_decode(enc, &ctx), IoError);
    EXPECT_EQ(ctx.now_ns(), 0.0);
    EXPECT_EQ(ctx.meter().total_ops(), 0u);
  };
  // 65536 x 65536 (a 12.9 GB image) with an empty payload.
  SicEncoded huge_image;
  huge_image.bytes = {'S',  'I',  'C',  '2', 0x80, 0x80,
                      0x04, 0x80, 0x80, 0x04, 70,  0};
  expect_rejected_uncharged(huge_image);
  // A Huffman count of 2^32 over a valid 256-byte code table.
  SicEncoded huge_count;
  huge_count.bytes = {'S', 'I', 'C', '2', 8, 8, 70, 0x80, 0x80, 0x80, 0x80,
                      0x10};
  huge_count.bytes.insert(huge_count.bytes.end(), 256, 8);
  ASSERT_EQ(huge_count.bytes.size(), 268u);
  expect_rejected_uncharged(huge_count);
  // A well-formed Huffman stream too short for 64 x 64: rejected before
  // the image is sized, so no block is charged.
  SicEncoded short_tokens;
  short_tokens.bytes = {'S', 'I', 'C', '2', 64, 64, 70};
  const std::vector<std::uint8_t> tokens =
      huffman_encode(std::vector<std::uint8_t>(100, 0));
  short_tokens.bytes.insert(short_tokens.bytes.end(), tokens.begin(),
                            tokens.end());
  sim::ScalarContext ctx(sim::cell_ppe());
  EXPECT_THROW(sic_decode(short_tokens, &ctx), IoError);
  EXPECT_EQ(ctx.meter().count(sim::OpClass::kMul), 0u);
  EXPECT_EQ(ctx.meter().count(sim::OpClass::kStore), 0u);
}

TEST(Codec, DecodeChargesPreprocessCost) {
  SicEncoded enc = sic_encode(synth_image(SceneKind::kGradient, 2), 80);
  sim::ScalarContext ctx(sim::desktop_pentium_d());
  sic_decode(enc, &ctx);
  EXPECT_GT(ctx.now_ns(), 0.0);
  EXPECT_GT(ctx.meter().count(sim::OpClass::kMul), 0u);
}

// ---- convolution / Sobel ----

TEST(Sobel, RespondsToStepEdges) {
  GrayImage img(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      img.at(x, y) = x < 8 ? 0 : 200;
    }
  }
  // Vertical edge: strong gx at the transition, zero gy.
  EXPECT_EQ(sobel_at(img, 7, 8, sobel_gx(), Border::kClamp), 800);
  EXPECT_EQ(sobel_at(img, 8, 8, sobel_gx(), Border::kClamp), 800);
  EXPECT_EQ(sobel_at(img, 7, 8, sobel_gy(), Border::kClamp), 0);
  EXPECT_EQ(sobel_at(img, 2, 8, sobel_gx(), Border::kClamp), 0);
}

TEST(Sobel, BorderPolicies) {
  GrayImage img(4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      img.at(x, y) = 100;
    }
  }
  // Flat image: clamp and reflect give zero gradient at the border;
  // zero-padding sees a step.
  EXPECT_EQ(sobel_at(img, 0, 0, sobel_gx(), Border::kClamp), 0);
  EXPECT_EQ(sobel_at(img, 0, 0, sobel_gx(), Border::kReflect), 0);
  EXPECT_NE(sobel_at(img, 0, 0, sobel_gx(), Border::kZero), 0);
}

TEST(Convolve, MatchesPointwiseOperator) {
  GrayImage img(20, 12);
  Rng rng(3);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 20; ++x) {
      img.at(x, y) = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  FloatImage out = convolve3x3(img, sobel_gy(), Border::kReflect);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 20; ++x) {
      ASSERT_EQ(out.at(x, y), static_cast<float>(sobel_at(
                                  img, x, y, sobel_gy(), Border::kReflect)));
    }
  }
}

// ---- wavelet ----

TEST(Wavelet, HaarRoundTrip) {
  FloatImage src(16, 8);
  Rng rng(4);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      src.at(x, y) = static_cast<float>(rng.uniform(0, 255));
    }
  }
  FloatImage ll;
  FloatImage lh;
  FloatImage hl;
  FloatImage hh;
  haar_step(src, ll, lh, hl, hh);
  FloatImage back = haar_unstep(ll, lh, hl, hh);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      ASSERT_NEAR(back.at(x, y), src.at(x, y), 1e-3);
    }
  }
}

TEST(Wavelet, ConstantImageHasNoDetailEnergy) {
  GrayImage img(32, 32);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      img.at(x, y) = 99;
    }
  }
  WaveletPyramid pyr = haar_decompose(img, 3);
  for (const auto& level : pyr.levels) {
    EXPECT_EQ(subband_energy(level.lh), 0.0);
    EXPECT_EQ(subband_energy(level.hl), 0.0);
    EXPECT_EQ(subband_energy(level.hh), 0.0);
  }
  EXPECT_NEAR(pyr.ll.at(0, 0), 99.0f, 1e-4);
}

TEST(Wavelet, OrientedPatternsLandInMatchingSubbands) {
  GrayImage vertical(32, 32);  // vertical stripes: horizontal detail
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      vertical.at(x, y) = x % 2 ? 200 : 0;
    }
  }
  WaveletPyramid pyr = haar_decompose(vertical, 1);
  double lh = subband_energy(pyr.levels[0].lh);
  double hl = subband_energy(pyr.levels[0].hl);
  EXPECT_GT(lh, 100.0);
  EXPECT_EQ(hl, 0.0);
}

TEST(Wavelet, DecomposeValidation) {
  GrayImage img(8, 8);
  EXPECT_THROW(haar_decompose(img, 0), ConfigError);
  EXPECT_THROW(haar_decompose(img, 4), ConfigError);  // 8 -> 4 -> 2 -> 1 -> x
  EXPECT_NO_THROW(haar_decompose(img, 3));
}

// ---- slicing ----

class SlicePlanProps
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SlicePlanProps, CoversExactlyOnceWithCorrectHalo) {
  auto [height, budget, halo] = GetParam();
  SlicePlan plan(height, budget, halo);
  int covered = 0;
  for (std::size_t i = 0; i < plan.count(); ++i) {
    const Slice& s = plan[i];
    EXPECT_EQ(s.y_begin, covered);
    EXPECT_GT(s.rows(), 0);
    EXPECT_LE(s.fetch_rows(), budget);
    EXPECT_EQ(s.fetch_begin, std::max(0, s.y_begin - halo));
    EXPECT_EQ(s.fetch_end, std::min(height, s.y_end + halo));
    covered = s.y_end;
  }
  EXPECT_EQ(covered, height);
  EXPECT_LE(plan.max_fetch_rows(), budget);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlicePlanProps,
    ::testing::Combine(::testing::Values(1, 17, 240, 241),
                       ::testing::Values(24, 64),
                       ::testing::Values(0, 1, 8)));

TEST(SlicePlan, RejectsImpossibleBudgets) {
  EXPECT_THROW(SlicePlan(100, 16, 8), ConfigError);  // 16 - 2*8 = 0 rows
  EXPECT_THROW(SlicePlan(0, 32, 0), ConfigError);
  EXPECT_THROW(SlicePlan(10, 32, -1), ConfigError);
}


// ---- Huffman entropy layer ----

namespace huffman_tests {

using cellport::img::huffman_decode;
using cellport::img::huffman_encode;

std::vector<std::uint8_t> roundtrip(const std::vector<std::uint8_t>& in) {
  auto enc = huffman_encode(in);
  std::size_t pos = 0;
  auto out = huffman_decode(enc, pos, nullptr);
  EXPECT_EQ(pos, enc.size());
  return out;
}

TEST(Huffman, RoundTripRandomBytes) {
  cellport::Rng rng(3);
  std::vector<std::uint8_t> data(10000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
  EXPECT_EQ(roundtrip(data), data);
}

TEST(Huffman, RoundTripSkewedBytes) {
  cellport::Rng rng(4);
  std::vector<std::uint8_t> data(20000);
  for (auto& b : data) {
    // Mostly zeros with occasional small values: the token-stream shape.
    b = rng.next_below(10) == 0
            ? static_cast<std::uint8_t>(rng.next_below(32))
            : 0;
  }
  auto enc = huffman_encode(data);
  EXPECT_EQ(roundtrip(data), data);
  // Strong skew compresses well below 8 bits/byte (table overhead incl.).
  EXPECT_LT(enc.size(), data.size() / 2);
}

TEST(Huffman, DegenerateInputs) {
  EXPECT_EQ(roundtrip({}), std::vector<std::uint8_t>{});
  std::vector<std::uint8_t> one = {42};
  EXPECT_EQ(roundtrip(one), one);
  std::vector<std::uint8_t> same(1000, 7);
  EXPECT_EQ(roundtrip(same), same);
}

TEST(Huffman, AllByteValues) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 256; ++i) {
    for (int rep = 0; rep <= i; ++rep) {
      data.push_back(static_cast<std::uint8_t>(i));
    }
  }
  EXPECT_EQ(roundtrip(data), data);
}

TEST(Huffman, TruncationDetected) {
  std::vector<std::uint8_t> data(5000, 1);
  for (std::size_t i = 0; i < data.size(); i += 3) {
    data[i] = static_cast<std::uint8_t>(i & 0xFF);
  }
  auto enc = huffman_encode(data);
  enc.resize(enc.size() / 2);
  std::size_t pos = 0;
  EXPECT_THROW(huffman_decode(enc, pos, nullptr), IoError);
  std::vector<std::uint8_t> empty;
  std::size_t p2 = 0;
  EXPECT_THROW(huffman_decode(empty, p2, nullptr), IoError);
}

TEST(Huffman, DecodeChargesBitWalk) {
  std::vector<std::uint8_t> data(4000, 9);
  auto enc = huffman_encode(data);
  sim::ScalarContext ctx(sim::cell_ppe());
  std::size_t pos = 0;
  huffman_decode(enc, pos, &ctx);
  EXPECT_GT(ctx.now_ns(), 0.0);
}

}  // namespace huffman_tests
}  // namespace
}  // namespace cellport::img
