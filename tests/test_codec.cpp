// Exactness and robustness of the PPE SIC decoder.
//
// huffman_decode reads through a prefix table and a 64-bit bit buffer,
// and sic_decode parses tokens through a pointer and dequantises only
// the coefficients it parsed. The bit-at-a-time decoder they replaced is
// kept below as the reference. Equal output, equal `pos`, the same
// IoError, equal meter counts and a bit-identical simulated clock on
// every carrier pin both the results and every charge: the clock is a
// running double sum, so a merged or reordered charge shows in its low
// bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "img/codec.h"
#include "img/huffman.h"
#include "img/synth.h"
#include "sim/scalar_context.h"
#include "support/error.h"
#include "support/rng.h"

namespace cellport::img {
namespace {

// The replaced decoder, with two kinds of edits. It carries the header
// checks that now reject a malformed carrier before any charge (the
// dimensions before the Huffman stage, a Huffman count above 8 bits per
// remaining byte, a token stream shorter than two bytes per block and
// channel). And its code shift, symbol index, run and DC arithmetic is
// written so that a malformed stream cannot overflow or index out of
// bounds. On every other stream both are no-ops.
namespace ref {

constexpr int kMaxCodeLen = 32;
constexpr int kBlock = 8;

std::uint64_t get_varint64(const std::vector<std::uint8_t>& in,
                           std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) {
      throw cellport::IoError("truncated Huffman stream");
    }
    std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 56) throw cellport::IoError("overlong varint");
  }
}

void canonical_codes(const std::vector<int>& lengths,
                     std::vector<std::uint32_t>& codes) {
  codes.assign(256, 0);
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (lengths[static_cast<std::size_t>(s)] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    int la = lengths[static_cast<std::size_t>(a)];
    int lb = lengths[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (int s : order) {
    int len = lengths[static_cast<std::size_t>(s)];
    code = static_cast<std::uint32_t>(std::uint64_t{code}
                                      << (len - prev_len));
    codes[static_cast<std::size_t>(s)] = code;
    ++code;
    prev_len = len;
  }
}

inline void chg(sim::ScalarContext* ctx, sim::OpClass c,
                std::uint64_t n = 1) {
  if (ctx != nullptr) ctx->charge(c, n);
}

std::vector<std::uint8_t> huffman_decode(
    const std::vector<std::uint8_t>& stream, std::size_t& pos,
    sim::ScalarContext* ctx) {
  std::uint64_t count = get_varint64(stream, pos);
  std::vector<std::uint8_t> out;
  if (count == 0) return out;
  if (count > (std::uint64_t{1} << 32) ||
      count > 8 * static_cast<std::uint64_t>(stream.size() - pos)) {
    throw cellport::IoError("implausible Huffman payload size");
  }
  out.reserve(count);

  if (pos + 256 > stream.size()) {
    throw cellport::IoError("truncated Huffman code table");
  }
  std::vector<int> lengths(256);
  for (int s = 0; s < 256; ++s) {
    lengths[static_cast<std::size_t>(s)] = stream[pos++];
    if (lengths[static_cast<std::size_t>(s)] > kMaxCodeLen) {
      throw cellport::IoError("invalid Huffman code length");
    }
  }
  std::vector<std::uint32_t> codes;
  canonical_codes(lengths, codes);

  std::vector<std::uint32_t> first_code(kMaxCodeLen + 1, 0);
  std::vector<int> first_index(kMaxCodeLen + 1, 0);
  std::vector<int> symbols;
  {
    std::vector<int> order;
    for (int s = 0; s < 256; ++s) {
      if (lengths[static_cast<std::size_t>(s)] > 0) order.push_back(s);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      int la = lengths[static_cast<std::size_t>(a)];
      int lb = lengths[static_cast<std::size_t>(b)];
      return la != lb ? la < lb : a < b;
    });
    symbols = order;
    int idx = 0;
    for (int len = 1; len <= kMaxCodeLen; ++len) {
      first_index[static_cast<std::size_t>(len)] = idx;
      bool found = false;
      for (; idx < static_cast<int>(symbols.size()); ++idx) {
        if (lengths[static_cast<std::size_t>(
                symbols[static_cast<std::size_t>(idx)])] != len) {
          break;
        }
        if (!found) {
          first_code[static_cast<std::size_t>(len)] = codes
              [static_cast<std::size_t>(symbols[static_cast<std::size_t>(
                  idx)])];
          found = true;
        }
      }
      if (!found) {
        first_code[static_cast<std::size_t>(len)] = 0xFFFFFFFFu;
      }
    }
  }

  std::uint32_t code = 0;
  int len = 0;
  std::uint8_t cur = 0;
  int bits_left = 0;
  while (out.size() < count) {
    if (bits_left == 0) {
      if (pos >= stream.size()) {
        throw cellport::IoError("truncated Huffman bitstream");
      }
      cur = stream[pos++];
      bits_left = 8;
      chg(ctx, sim::OpClass::kLoad, 1);
      chg(ctx, sim::OpClass::kIntAlu, 10);
      chg(ctx, sim::OpClass::kBranch, 3);
    }
    code = (code << 1) | ((cur >> (bits_left - 1)) & 1);
    --bits_left;
    ++len;
    if (len > kMaxCodeLen) {
      throw cellport::IoError("corrupt Huffman bitstream");
    }
    std::uint32_t fc = first_code[static_cast<std::size_t>(len)];
    if (fc == 0xFFFFFFFFu || code < fc) continue;
    const std::uint64_t idx =
        static_cast<std::uint64_t>(first_index[static_cast<std::size_t>(
            len)]) +
        (code - fc);
    if (idx >= symbols.size() ||
        lengths[static_cast<std::size_t>(symbols[idx])] != len) {
      continue;  // code belongs to a longer length
    }
    out.push_back(static_cast<std::uint8_t>(symbols[idx]));
    code = 0;
    len = 0;
  }
  return out;
}

constexpr std::array<std::uint8_t, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

constexpr std::array<int, 64> kBaseQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

std::array<int, 64> quant_table(int quality) {
  quality = std::clamp(quality, 1, 100);
  int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<int, 64> q{};
  for (int i = 0; i < 64; ++i) {
    q[i] = std::clamp((kBaseQuant[i] * scale + 50) / 100, 1, 255);
  }
  return q;
}

struct DctBasis {
  float c[kBlock][kBlock];
  DctBasis() {
    for (int k = 0; k < kBlock; ++k) {
      float a = k == 0 ? std::sqrt(1.0f / kBlock) : std::sqrt(2.0f / kBlock);
      for (int n = 0; n < kBlock; ++n) {
        c[k][n] = a * std::cos((2 * n + 1) * k * 3.14159265358979f /
                               (2 * kBlock));
      }
    }
  }
};

const DctBasis& basis() {
  static const DctBasis b;
  return b;
}

void idct8(const float in[kBlock], float out[kBlock]) {
  const auto& b = basis();
  float e[4];
  float o[4];
  for (int n = 0; n < 4; ++n) {
    e[n] = in[0] * b.c[0][n] + in[2] * b.c[2][n] + in[4] * b.c[4][n] +
           in[6] * b.c[6][n];
    o[n] = in[1] * b.c[1][n] + in[3] * b.c[3][n] + in[5] * b.c[5][n] +
           in[7] * b.c[7][n];
  }
  for (int n = 0; n < 4; ++n) {
    out[n] = e[n] + o[n];
    out[7 - n] = e[n] - o[n];
  }
}

int idct8x8(const float in[kBlock][kBlock], float out[kBlock][kBlock]) {
  float tmp[kBlock][kBlock];
  int passes = 0;
  for (int x = 0; x < kBlock; ++x) {
    bool any = false;
    for (int k = 0; k < kBlock; ++k) any = any || in[k][x] != 0.0f;
    if (!any) {
      for (int n = 0; n < kBlock; ++n) tmp[n][x] = 0.0f;
      continue;
    }
    float col[kBlock];
    float res[kBlock];
    for (int k = 0; k < kBlock; ++k) col[k] = in[k][x];
    idct8(col, res);
    ++passes;
    for (int n = 0; n < kBlock; ++n) tmp[n][x] = res[n];
  }
  for (int y = 0; y < kBlock; ++y) {
    idct8(tmp[y], out[y]);
    ++passes;
  }
  return passes;
}

std::uint32_t get_varint(const std::vector<std::uint8_t>& in,
                         std::size_t& pos) {
  std::uint32_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) throw cellport::IoError("truncated SIC stream");
    std::uint8_t b = in[pos++];
    v |= static_cast<std::uint32_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 28) throw cellport::IoError("overlong varint in SIC stream");
  }
}

int zz_dec(std::uint32_t v) {
  return static_cast<int>(v >> 1) ^ -static_cast<int>(v & 1);
}

/// SIC2 carriers only (the PPM path is not under test here).
RgbImage sic_decode(const SicEncoded& enc, sim::ScalarContext* ctx) {
  std::size_t hdr = 0;
  if (enc.bytes.size() < 4 || enc.bytes[0] != 'S' ||
      enc.bytes[1] != 'I' || enc.bytes[2] != 'C' || enc.bytes[3] != '2') {
    throw cellport::IoError("bad SIC magic");
  }
  hdr = 4;
  int w = static_cast<int>(get_varint(enc.bytes, hdr));
  int h = static_cast<int>(get_varint(enc.bytes, hdr));
  int quality = static_cast<int>(get_varint(enc.bytes, hdr));
  if (w <= 0 || h <= 0 || w > 1 << 16 || h > 1 << 16) {
    throw cellport::IoError("bad SIC dimensions");
  }
  std::vector<std::uint8_t> in = huffman_decode(enc.bytes, hdr, ctx);
  std::size_t pos = 0;
  int bw = (w + kBlock - 1) / kBlock;
  int bh = (h + kBlock - 1) / kBlock;
  if (in.size() < 2 * 3 * static_cast<std::uint64_t>(bw) * bh) {
    throw cellport::IoError("truncated SIC stream");
  }
  auto q = quant_table(quality);
  RgbImage img(w, h);

  for (int ch = 0; ch < 3; ++ch) {
    int prev_dc = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        int qv[64] = {};
        prev_dc = static_cast<int>(
            static_cast<std::uint32_t>(prev_dc) +
            static_cast<std::uint32_t>(zz_dec(get_varint(in, pos))));
        qv[0] = prev_dc;
        int i = 1;
        int nz_ac = 0;
        for (;;) {
          std::uint32_t tok = get_varint(in, pos);
          chg(ctx, sim::OpClass::kLoad, 2);
          chg(ctx, sim::OpClass::kIntAlu, 4);
          chg(ctx, sim::OpClass::kBranch, 2);
          if (tok == 0) break;  // end of block
          if (tok - 1 >= static_cast<std::uint32_t>(64 - i)) {
            throw cellport::IoError("SIC run overflow");
          }
          i += static_cast<int>(tok) - 1;
          qv[i++] = zz_dec(get_varint(in, pos));
          ++nz_ac;
        }
        float blk[kBlock][kBlock];
        if (nz_ac == 0) {
          chg(ctx, sim::OpClass::kMul, 3);
          chg(ctx, sim::OpClass::kStore, 64);
          chg(ctx, sim::OpClass::kIntAlu, 64);
          float c00 = basis().c[0][0];
          float v = (static_cast<float>(qv[0]) *
                     static_cast<float>(q[0]) * c00) *
                    c00;
          for (auto& row : blk) {
            for (float& x : row) x = v;
          }
        } else {
          float coef[kBlock][kBlock] = {};
          for (int k = 0; k < 64; ++k) {
            int idx = kZigzag[k];
            coef[idx / kBlock][idx % kBlock] =
                static_cast<float>(qv[k]) * static_cast<float>(q[idx]);
          }
          int passes = idct8x8(coef, blk);
          chg(ctx, sim::OpClass::kMul,
              static_cast<std::uint64_t>(nz_ac) + 1);
          chg(ctx, sim::OpClass::kFloatAlu,
              static_cast<std::uint64_t>(passes) * 32);
          chg(ctx, sim::OpClass::kMul,
              static_cast<std::uint64_t>(passes) * 32);
          chg(ctx, sim::OpClass::kIntAlu, 64 * 2);
          chg(ctx, sim::OpClass::kStore, 64);
        }
        for (int y = 0; y < kBlock; ++y) {
          int sy = by * kBlock + y;
          if (sy >= h) break;
          for (int x = 0; x < kBlock; ++x) {
            int sx = bx * kBlock + x;
            if (sx >= w) break;
            img.at(sx, sy, ch) = static_cast<std::uint8_t>(
                std::clamp(std::lround(blk[y][x] + 128.0f), 0l, 255l));
          }
        }
      }
    }
  }
  return img;
}

}  // namespace ref

/// Everything a decode shows: the output (payload or packed pixels), the
/// stream position, the error, the clock's bits and every meter count.
struct Outcome {
  std::string error;
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> out;
  std::size_t pos = 0;
  std::uint64_t clock_bits = 0;
  std::array<std::uint64_t, sim::kNumOpClasses> counts{};
};

void record_charges(const sim::ScalarContext& ctx, Outcome& o) {
  o.clock_bits = std::bit_cast<std::uint64_t>(ctx.now_ns());
  for (std::size_t c = 0; c < sim::kNumOpClasses; ++c) {
    o.counts[c] = ctx.meter().count(static_cast<sim::OpClass>(c));
  }
}

using HuffmanFn = std::vector<std::uint8_t> (*)(
    const std::vector<std::uint8_t>&, std::size_t&, sim::ScalarContext*);
using SicFn = RgbImage (*)(const SicEncoded&, sim::ScalarContext*);

Outcome run_huffman(HuffmanFn decode, const std::vector<std::uint8_t>& s) {
  sim::ScalarContext ctx(sim::cell_ppe());
  Outcome o;
  try {
    o.out = decode(s, o.pos, &ctx);
  } catch (const IoError& e) {
    o.error = e.what();
  }
  record_charges(ctx, o);
  return o;
}

Outcome run_sic(SicFn decode, const SicEncoded& enc) {
  sim::ScalarContext ctx(sim::cell_ppe());
  Outcome o;
  try {
    RgbImage im = decode(enc, &ctx);
    o.width = im.width();
    o.height = im.height();
    for (int y = 0; y < im.height(); ++y) {
      o.out.insert(o.out.end(), im.row(y), im.row(y) + im.width() * 3);
    }
  } catch (const IoError& e) {
    o.error = e.what();
  }
  record_charges(ctx, o);
  return o;
}

::testing::AssertionResult same(const Outcome& want, const Outcome& got) {
  if (want.error != got.error) {
    return ::testing::AssertionFailure()
           << "error '" << got.error << "', reference '" << want.error
           << "'";
  }
  if (want.width != got.width || want.height != got.height ||
      want.out != got.out) {
    return ::testing::AssertionFailure() << "output differs";
  }
  if (want.pos != got.pos) {
    return ::testing::AssertionFailure()
           << "pos " << got.pos << ", reference " << want.pos;
  }
  for (std::size_t c = 0; c < sim::kNumOpClasses; ++c) {
    if (want.counts[c] != got.counts[c]) {
      return ::testing::AssertionFailure()
             << sim::op_class_name(static_cast<sim::OpClass>(c)) << " count "
             << got.counts[c] << ", reference " << want.counts[c];
    }
  }
  if (want.clock_bits != got.clock_bits) {
    return ::testing::AssertionFailure() << "clock bits differ";
  }
  return ::testing::AssertionSuccess();
}

/// Damaged copies of `bytes`: truncation at every k-th byte (k sized for
/// about 40 cuts) and `flips` single-bit flips, a quarter of them in the
/// first 300 bytes (header and code table).
std::vector<std::vector<std::uint8_t>> damaged(
    const std::vector<std::uint8_t>& bytes, int flips, Rng& rng) {
  std::vector<std::vector<std::uint8_t>> out;
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 40);
  for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
    out.emplace_back(bytes.begin(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(cut));
  }
  for (int f = 0; f < flips; ++f) {
    const std::size_t span =
        f % 4 == 0 ? std::min<std::size_t>(bytes.size(), 300) : bytes.size();
    const std::uint64_t bit = rng.next_below(span * 8);
    out.push_back(bytes);
    out.back()[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  return out;
}

void expect_huffman_exact(const std::vector<std::uint8_t>& stream,
                          const std::string& what, Rng& rng) {
  ASSERT_TRUE(same(run_huffman(&ref::huffman_decode, stream),
                   run_huffman(&huffman_decode, stream)))
      << what;
  int variant = 0;
  for (const auto& bad : damaged(stream, 40, rng)) {
    ASSERT_TRUE(same(run_huffman(&ref::huffman_decode, bad),
                     run_huffman(&huffman_decode, bad)))
        << what << ", damaged variant " << variant;
    ++variant;
  }
}

TEST(Codec, DecodeMatchesBitWalkReference) {
  constexpr SceneKind kKinds[] = {SceneKind::kGradient, SceneKind::kCheckers,
                                  SceneKind::kTexture, SceneKind::kShapes,
                                  SceneKind::kStripes};
  constexpr struct {
    int w, h;
  } kSizes[] = {{352, 240}, {37, 23}, {64, 48}, {9, 17}, {1, 1}, {17, 8}};
  Rng rng(25);
  int n = 0;
  // Quality 1 leaves DC-only blocks; quality 100 leaves dense blocks,
  // mostly without an all-zero column.
  for (int quality : {1, 30, 70, 95, 100}) {
    for (const auto& size : kSizes) {
      // The full-size frame once per quality; each small size twice.
      const int kinds = size.w == 352 ? 1 : 2;
      for (int k = 0; k < kinds; ++k) {
        const SceneKind kind = kKinds[n++ % 5];
        SicEncoded enc = sic_encode(
            synth_image(kind, 40 + static_cast<std::uint64_t>(n), size.w,
                        size.h),
            quality);
        const std::string what =
            "q" + std::to_string(quality) + " " + std::to_string(size.w) +
            "x" + std::to_string(size.h) + " scene " +
            std::to_string(static_cast<int>(kind));
        ASSERT_TRUE(same(run_sic(&ref::sic_decode, enc),
                         run_sic(&sic_decode, enc)))
            << what;
        int variant = 0;
        for (auto& bad : damaged(enc.bytes, 24, rng)) {
          SicEncoded d;
          d.bytes = std::move(bad);
          ASSERT_TRUE(same(run_sic(&ref::sic_decode, d),
                           run_sic(&sic_decode, d)))
              << what << ", damaged variant " << variant;
          ++variant;
        }
      }
    }
  }
}

TEST(Huffman, DecodeMatchesBitWalkReference) {
  Rng rng(26);
  // Fibonacci weights give code lengths up to 21 bits, past the prefix
  // table, so those codes finish bit by bit.
  {
    std::vector<std::uint8_t> fib;
    std::uint64_t a = 1;
    std::uint64_t b = 1;
    for (int s = 0; s < 22; ++s) {
      fib.insert(fib.end(), a, static_cast<std::uint8_t>(s * 11));
      std::uint64_t next = a + b;
      a = b;
      b = next;
    }
    for (std::size_t i = fib.size() - 1; i > 0; --i) {
      std::swap(fib[i], fib[rng.next_below(i + 1)]);
    }
    expect_huffman_exact(huffman_encode(fib), "fibonacci", rng);
  }
  expect_huffman_exact(huffman_encode(std::vector<std::uint8_t>(1000, 7)),
                       "single symbol", rng);
  expect_huffman_exact(huffman_encode({42}), "one byte", rng);
  {
    std::vector<std::uint8_t> all;
    for (int i = 0; i < 256; ++i) {
      all.insert(all.end(), static_cast<std::size_t>(i) + 1,
                 static_cast<std::uint8_t>(i));
    }
    expect_huffman_exact(huffman_encode(all), "all 256 symbols", rng);
  }
  {
    std::vector<std::uint8_t> noise(3000);
    for (auto& v : noise) v = static_cast<std::uint8_t>(rng.next_below(256));
    expect_huffman_exact(huffman_encode(noise), "uniform noise", rng);
  }
  // Malformed length tables (not prefix codes, over- or under-full,
  // codes up to 32 bits): the walk's first-match rule defines the output.
  std::vector<std::uint8_t> base(2000);
  for (auto& v : base) v = static_cast<std::uint8_t>(rng.next_below(24));
  const std::vector<std::uint8_t> stream = huffman_encode(base);
  std::size_t table = 0;
  while ((stream[table] & 0x80) != 0) ++table;
  ++table;
  for (int t = 0; t < 24; ++t) {
    std::vector<std::uint8_t> bad = stream;
    for (int s = 0; s < 256; ++s) {
      const std::uint64_t r = rng.next_below(4);
      bad[table + static_cast<std::size_t>(s)] =
          r == 0 ? 0
                 : static_cast<std::uint8_t>(
                       t == 0 ? 32 : 1 + rng.next_below(t < 12 ? 12 : 32));
    }
    expect_huffman_exact(bad, "malformed table " + std::to_string(t), rng);
  }
}

TEST(Codec, SurvivesSeededMutations) {
  // Byte flips, truncations and inserted bytes: every mutated carrier
  // decodes or throws IoError. Under the sanitizer build this also
  // checks every table and buffer read for bounds.
  std::vector<SicEncoded> carriers;
  for (int quality : {30, 70, 95}) {
    carriers.push_back(
        sic_encode(synth_image(SceneKind::kTexture, 7, 48, 40), quality));
    carriers.push_back(
        sic_encode(synth_image(SceneKind::kShapes, 8, 23, 31), quality));
  }
  Rng rng(2000);
  for (int m = 0; m < 2000; ++m) {
    SicEncoded enc = carriers[rng.next_below(carriers.size())];
    auto& b = enc.bytes;
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits && !b.empty(); ++e) {
      const std::size_t at = rng.next_below(b.size());
      switch (rng.next_below(3)) {
        case 0:
          b[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
          break;
        case 1:
          b.resize(at);
          break;
        default:
          b.insert(b.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<std::uint8_t>(rng.next_below(256)));
          break;
      }
    }
    sim::ScalarContext ctx(sim::cell_ppe());
    try {
      sic_decode(enc, &ctx);
    } catch (const IoError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << m << " threw " << e.what();
    }
  }
}

}  // namespace
}  // namespace cellport::img
