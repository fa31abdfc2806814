#include "img/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "img/huffman.h"
#include "img/ppm.h"
#include "support/error.h"

namespace cellport::img {

namespace {

constexpr int kBlock = 8;

// Zigzag scan order for an 8x8 block.
constexpr std::array<std::uint8_t, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

// Base luminance quantization table (JPEG Annex K), scaled by quality.
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

// Separable 8-point DCT-II basis, precomputed.
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

void fdct8x8(const float in[kBlock][kBlock], float out[kBlock][kBlock]) {
  const auto& b = basis();
  float tmp[kBlock][kBlock];
  for (int y = 0; y < kBlock; ++y) {
    for (int k = 0; k < kBlock; ++k) {
      float acc = 0;
      for (int n = 0; n < kBlock; ++n) acc += in[y][n] * b.c[k][n];
      tmp[y][k] = acc;
    }
  }
  for (int x = 0; x < kBlock; ++x) {
    for (int k = 0; k < kBlock; ++k) {
      float acc = 0;
      for (int n = 0; n < kBlock; ++n) acc += tmp[n][x] * b.c[k][n];
      out[k][x] = acc;
    }
  }
}

typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef std::uint8_t u8x4 __attribute__((vector_size(4)));

inline f32x4 load4(const float* p) {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// One 8x8 block after the inverse DCT: row y is lo[y] (outputs 0-3)
/// and hi[y] (outputs 4-7).
struct IdctRows {
  f32x4 lo[kBlock];
  f32x4 hi[kBlock];
};

/// Fast separable 8-point inverse DCT (even/odd decomposition: the basis
/// is symmetric for even and antisymmetric for odd coefficients, halving
/// the multiply count — the structure real JPEG decoders use), four
/// lanes at a time. Every lane makes the float operations of the scalar
/// 1-D transform in the same order:
///   e[n] = in[0]*c[0][n] + in[2]*c[2][n] + in[4]*c[4][n] + in[6]*c[6][n]
///   o[n] = in[1]*c[1][n] + in[3]*c[3][n] + in[5]*c[5][n] + in[7]*c[7][n]
///   out[n] = e[n] + o[n],  out[7-n] = e[n] - o[n]   (n = 0..3)
/// so each output has the scalar transform's bits, up to the sign of a
/// zero, which +128 erases.
///
/// Returns the number of 1-D passes the scalar transform computes (the
/// caller charges 32 mul + 32 add per pass): 8 row passes plus one per
/// column with a nonzero coefficient — quantized blocks are sparse, and
/// real decoders skip the all-zero columns. Here a group of four
/// columns is skipped only when all four are zero.
int idct8x8(const DctBasis& b, const float in[kBlock][kBlock],
            IdctRows& out) {
  // Column pass, lanes across columns: tmp[n] holds output n of
  // columns 4h..4h+3 in tmp[n][h].
  f32x4 tmp[kBlock][2];
  int passes = kBlock;
  for (int h = 0; h < 2; ++h) {
    f32x4 v[kBlock];
    i32x4 nz = {};
    for (int k = 0; k < kBlock; ++k) {
      v[k] = load4(&in[k][4 * h]);
      nz |= v[k] != 0.0f;
    }
    passes -= nz[0] + nz[1] + nz[2] + nz[3];
    if ((nz[0] | nz[1] | nz[2] | nz[3]) == 0) {
      for (auto& row : tmp) row[h] = f32x4{};
      continue;
    }
    for (int n = 0; n < 4; ++n) {
      const f32x4 e = v[0] * b.c[0][n] + v[2] * b.c[2][n] +
                      v[4] * b.c[4][n] + v[6] * b.c[6][n];
      const f32x4 o = v[1] * b.c[1][n] + v[3] * b.c[3][n] +
                      v[5] * b.c[5][n] + v[7] * b.c[7][n];
      tmp[n][h] = e + o;
      tmp[7 - n][h] = e - o;
    }
  }
  // Row pass, lanes across outputs n, with each input broadcast; the
  // outputs 7-n are e - o reversed.
  f32x4 c[kBlock];
  for (int k = 0; k < kBlock; ++k) c[k] = load4(b.c[k]);
  for (int y = 0; y < kBlock; ++y) {
    const f32x4 t0 = tmp[y][0];
    const f32x4 t1 = tmp[y][1];
    const f32x4 e = c[0] * t0[0] + c[2] * t0[2] + c[4] * t1[0] +
                    c[6] * t1[2];
    const f32x4 o = c[1] * t0[1] + c[3] * t0[3] + c[5] * t1[1] +
                    c[7] * t1[3];
    out.lo[y] = e + o;
    const f32x4 d = e - o;
    out.hi[y] = __builtin_shufflevector(d, d, 3, 2, 1, 0);
  }
  return passes;
}

// --- varint + zigzag-int helpers (entropy layer) ---

void put_varint(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_varint_slow(const std::uint8_t*& p,
                              const std::uint8_t* end) {
  std::uint32_t v = 0;
  int shift = 0;
  for (;;) {
    if (p >= end) throw cellport::IoError("truncated SIC stream");
    std::uint8_t b = *p++;
    v |= static_cast<std::uint32_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 28) throw cellport::IoError("overlong varint in SIC stream");
  }
}

/// Reads the varint at p (advanced past it); most tokens are one byte.
inline std::uint32_t get_varint(const std::uint8_t*& p,
                                const std::uint8_t* end) {
  if (p < end && *p < 0x80) return *p++;
  return get_varint_slow(p, end);
}

std::uint32_t zz_enc(int v) {
  return static_cast<std::uint32_t>((v << 1) ^ (v >> 31));
}

int zz_dec(std::uint32_t v) {
  return static_cast<int>(v >> 1) ^ -static_cast<int>(v & 1);
}

/// clamp(lround(v + 128), 0, 255) per lane, without libm. Between the
/// clamps, f - trunc(f) is exact (t <= f < 2t, or t = 0), so comparing
/// it with 0.5 rounds half away from zero as lround does. Lanes outside
/// the clamps (NaN included) convert +0 instead, so no conversion
/// leaves the int range.
inline u8x4 to_pixel4(f32x4 v) {
  const f32x4 f = v + 128.0f;
  const i32x4 lo = f >= 0.5f;
  const i32x4 hi = f >= 254.5f;
  const f32x4 in = reinterpret_cast<f32x4>(reinterpret_cast<i32x4>(f) &
                                           (lo & ~hi));
  const i32x4 t = __builtin_convertvector(in, i32x4);
  const i32x4 up = in - __builtin_convertvector(t, f32x4) >= 0.5f;
  return __builtin_convertvector((t - up) | (hi & 255), u8x4);
}

}  // namespace

SicEncoded sic_encode(const RgbImage& src, int quality) {
  SicEncoded enc;
  enc.width = src.width();
  enc.height = src.height();
  auto q = quant_table(quality);

  // The token stream is built first, then entropy-coded (canonical
  // Huffman over the token bytes) behind a SIC2 header.
  std::vector<std::uint8_t> out;

  int bw = (src.width() + kBlock - 1) / kBlock;
  int bh = (src.height() + kBlock - 1) / kBlock;
  for (int ch = 0; ch < 3; ++ch) {
    int prev_dc = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        float blk[kBlock][kBlock];
        for (int y = 0; y < kBlock; ++y) {
          int sy = std::min(by * kBlock + y, src.height() - 1);
          for (int x = 0; x < kBlock; ++x) {
            int sx = std::min(bx * kBlock + x, src.width() - 1);
            blk[y][x] = static_cast<float>(src.at(sx, sy, ch)) - 128.0f;
          }
        }
        float coef[kBlock][kBlock];
        fdct8x8(blk, coef);
        // Quantize + zigzag + RLE of zero runs.
        int qv[64];
        for (int i = 0; i < 64; ++i) {
          int idx = kZigzag[i];
          float c = coef[idx / kBlock][idx % kBlock];
          qv[i] = static_cast<int>(std::lround(c / static_cast<float>(
                                                       q[idx])));
        }
        // DC is delta-coded against the previous block; AC coefficients
        // are (run+1, value) pairs terminated by an explicit EOB token.
        put_varint(out, zz_enc(qv[0] - prev_dc));
        prev_dc = qv[0];
        int i = 1;
        while (i < 64) {
          int run = 0;
          while (i + run < 64 && qv[i + run] == 0) ++run;
          if (i + run >= 64) break;  // only zeros remain
          put_varint(out, static_cast<std::uint32_t>(run) + 1);
          put_varint(out, zz_enc(qv[i + run]));
          i += run + 1;
        }
        put_varint(out, 0);  // end-of-block
      }
    }
  }
  enc.bytes.push_back('S');
  enc.bytes.push_back('I');
  enc.bytes.push_back('C');
  enc.bytes.push_back('2');
  put_varint(enc.bytes, static_cast<std::uint32_t>(src.width()));
  put_varint(enc.bytes, static_cast<std::uint32_t>(src.height()));
  put_varint(enc.bytes, static_cast<std::uint32_t>(quality));
  std::vector<std::uint8_t> packed = huffman_encode(out);
  enc.bytes.insert(enc.bytes.end(), packed.begin(), packed.end());
  return enc;
}

SicEncoded ppm_encode(const RgbImage& src) {
  SicEncoded enc;
  enc.width = src.width();
  enc.height = src.height();
  // cellfeed's DMA-list gather anchors each row's window on the enclosing
  // 16-byte boundary, so the carrier keeps >= 15 readable bytes on both
  // sides of the pixel payload: the comment line pads the header (and
  // exercises the strict parser's comment handling on every decode path),
  // and 15 zero tail bytes pad the end (trailing bytes after the payload
  // are legal PPM).
  const std::string hdr = "P6\n# raw feed carrier\n" +
                          std::to_string(src.width()) + " " +
                          std::to_string(src.height()) + "\n255\n";
  const std::size_t row_bytes = static_cast<std::size_t>(src.width()) * 3;
  enc.bytes.reserve(hdr.size() +
                    row_bytes * static_cast<std::size_t>(src.height()) + 15);
  enc.bytes.insert(enc.bytes.end(), hdr.begin(), hdr.end());
  for (int y = 0; y < src.height(); ++y) {
    const std::uint8_t* row = src.row(y);
    enc.bytes.insert(enc.bytes.end(), row, row + row_bytes);
  }
  enc.bytes.insert(enc.bytes.end(), 15, std::uint8_t{0});
  return enc;
}

bool is_ppm(const SicEncoded& enc) {
  return enc.bytes.size() >= 2 && enc.bytes[0] == 'P' &&
         enc.bytes[1] == '6';
}

RgbImage sic_decode(const SicEncoded& enc, sim::ScalarContext* ctx) {
  if (is_ppm(enc)) {
    // PPM carrier: the strict shared parser (identical to the SPE feed
    // path's header handling), then a per-row unpack whose touch cost is
    // charged per 16-byte chunk — this is the PPE-resident ingest that
    // cellfeed exists to displace.
    RgbImage img = decode_p6(enc.bytes.data(), enc.bytes.size());
    std::uint64_t chunks =
        (static_cast<std::uint64_t>(img.width()) * 3 * img.height() + 15) /
        16;
    sim::ScalarContext::ChargeRun run(ctx);
    run.charge(sim::OpClass::kLoad, chunks);
    run.charge(sim::OpClass::kStore, chunks);
    run.charge(sim::OpClass::kIntAlu,
               static_cast<std::uint64_t>(img.height()) * 2);
    return img;
  }
  if (enc.bytes.size() < 4 || enc.bytes[0] != 'S' ||
      enc.bytes[1] != 'I' || enc.bytes[2] != 'C' || enc.bytes[3] != '2') {
    throw cellport::IoError("bad SIC magic");
  }
  const std::uint8_t* p = enc.bytes.data() + 4;
  const std::uint8_t* const bytes_end = enc.bytes.data() + enc.bytes.size();
  int w = static_cast<int>(get_varint(p, bytes_end));
  int h = static_cast<int>(get_varint(p, bytes_end));
  int quality = static_cast<int>(get_varint(p, bytes_end));
  if (w <= 0 || h <= 0 || w > 1 << 16 || h > 1 << 16) {
    throw cellport::IoError("bad SIC dimensions");
  }
  // Entropy-decode the token stream, then parse it.
  std::size_t hdr = static_cast<std::size_t>(p - enc.bytes.data());
  std::vector<std::uint8_t> in = huffman_decode(enc.bytes, hdr, ctx);
  int bw = (w + kBlock - 1) / kBlock;
  int bh = (h + kBlock - 1) / kBlock;
  // Every block of every channel holds at least a DC varint and an
  // end-of-block token; check before sizing the image.
  if (in.size() < 2 * 3 * static_cast<std::uint64_t>(bw) * bh) {
    throw cellport::IoError("truncated SIC stream");
  }
  auto q = quant_table(quality);
  std::array<float, 64> qf{};
  for (int k = 0; k < 64; ++k) qf[k] = static_cast<float>(q[k]);
  const DctBasis b = basis();
  const float c00 = b.c[0][0];
  RgbImage img(w, h);

  // The block stage's charges run in locals; the fixed ones are priced
  // once.
  using sim::OpClass;
  sim::ScalarContext::ChargeRun run(ctx);
  const auto tok_load = run.fixed(OpClass::kLoad, 2);
  const auto tok_alu = run.fixed(OpClass::kIntAlu, 4);
  const auto tok_branch = run.fixed(OpClass::kBranch, 2);
  const auto dc_mul = run.fixed(OpClass::kMul, 3);
  const auto store_block = run.fixed(OpClass::kStore, 64);
  const auto dc_alu = run.fixed(OpClass::kIntAlu, 64);
  const auto idct_alu = run.fixed(OpClass::kIntAlu, 64 * 2);

  const std::uint8_t* const end = in.data() + in.size();
  p = in.data();
  for (int ch = 0; ch < 3; ++ch) {
    int prev_dc = 0;
    for (int by = 0; by < bh; ++by) {
      const int rows = std::min(kBlock, h - by * kBlock);
      for (int bx = 0; bx < bw; ++bx) {
        const int cols = std::min(kBlock, w - bx * kBlock);
        // Wrapping sum: a malformed stream may overflow the DC chain.
        prev_dc = static_cast<int>(
            static_cast<std::uint32_t>(prev_dc) +
            static_cast<std::uint32_t>(zz_dec(get_varint(p, end))));
        alignas(16) float coef[kBlock][kBlock] = {};
        int i = 1;
        int nz_ac = 0;
        for (;;) {
          std::uint32_t tok = get_varint(p, end);
          run.charge(tok_load);
          run.charge(tok_alu);
          run.charge(tok_branch);
          if (tok == 0) break;  // end of block
          if (tok - 1 >= static_cast<std::uint32_t>(64 - i)) {
            throw cellport::IoError("SIC run overflow");
          }
          i += static_cast<int>(tok) - 1;
          const int idx = kZigzag[static_cast<std::size_t>(i++)];
          coef[idx / kBlock][idx % kBlock] =
              static_cast<float>(zz_dec(get_varint(p, end))) * qf[idx];
          ++nz_ac;
        }
        std::uint8_t* const dst0 =
            img.row(by * kBlock) + bx * kBlock * 3 + ch;
        const int stride = img.stride();
        if (nz_ac == 0) {
          // DC-only fast path (most blocks of smooth regions): the
          // whole block is one constant. Same association as the
          // general path: (dc*q * c00) * c00.
          run.charge(dc_mul);
          run.charge(store_block);
          run.charge(dc_alu);
          const float dc = (static_cast<float>(prev_dc) * qf[0] * c00) * c00;
          const std::uint8_t v = to_pixel4(f32x4{dc, dc, dc, dc})[0];
          for (int y = 0; y < rows; ++y) {
            std::uint8_t* dst = dst0 + y * stride;
            for (int x = 0; x < cols; ++x) dst[x * 3] = v;
          }
          continue;
        }
        // Dequantize the nonzeros (above, as parsed) + fast separable
        // IDCT (32 mul + 32 add per 1-D pass; all-zero columns are
        // skipped).
        coef[0][0] = static_cast<float>(prev_dc) * qf[0];
        IdctRows blk;
        const int passes = idct8x8(b, coef, blk);
        run.charge(OpClass::kMul, static_cast<std::uint64_t>(nz_ac) + 1);
        run.charge(OpClass::kFloatAlu,
                   static_cast<std::uint64_t>(passes) * 32);
        run.charge(OpClass::kMul, static_cast<std::uint64_t>(passes) * 32);
        run.charge(idct_alu);
        run.charge(store_block);
        for (int y = 0; y < rows; ++y) {
          std::uint8_t px[kBlock];
          const u8x4 lo = to_pixel4(blk.lo[y]);
          const u8x4 hi = to_pixel4(blk.hi[y]);
          std::memcpy(px, &lo, 4);
          std::memcpy(px + 4, &hi, 4);
          std::uint8_t* dst = dst0 + y * stride;
          for (int x = 0; x < cols; ++x) dst[x * 3] = px[x];
        }
      }
    }
  }
  return img;
}

double psnr(const RgbImage& a, const RgbImage& b) {
  if (!a.same_dims(b)) {
    throw cellport::ConfigError("psnr: image dimensions differ");
  }
  double mse = 0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      for (int c = 0; c < 3; ++c) {
        double d = static_cast<double>(a.at(x, y, c)) - b.at(x, y, c);
        mse += d * d;
      }
    }
  }
  mse /= static_cast<double>(a.width()) * a.height() * 3;
  if (mse <= 0) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace cellport::img
