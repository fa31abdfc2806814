// Shared SPE-side helpers: bulk DMA, multi-buffered row streaming, and
// the host vectors and load costs of the charge-once row bodies.
#pragma once

#include <cstdint>
#include <cstring>

#include "spu/spu.h"

namespace cellport::kernels {

/// DMAs `bytes` from main memory into the local store, splitting into
/// <= 16 KiB MFC commands on one tag (both addresses must be 16-byte
/// aligned and bytes a multiple of 16).
void dma_in(void* ls, std::uint64_t ea, std::uint32_t bytes, unsigned tag);

/// DMAs `bytes` from the local store out to main memory (same rules).
void dma_out(const void* ls, std::uint64_t ea, std::uint32_t bytes,
             unsigned tag);

/// Fetches a POD wrapper struct (the first DMA of every kernel call).
template <typename T>
void fetch_msg(T* ls_msg, std::uint64_t ea) {
  constexpr std::uint32_t bytes =
      static_cast<std::uint32_t>((sizeof(T) + 15) & ~std::size_t{15});
  dma_in(ls_msg, ea, bytes, 0);
  cellport::sim::mfc_write_tag_mask(1u << 0);
  cellport::sim::mfc_read_tag_status_all();
}

/// Emits a kernel's result buffer (the closing DMA of every kernel call).
/// Per-call dispatch puts on tag 0 and waits — exactly the historical
/// dma_out + tag-mask + tag-status tail. Under ring dispatch (the
/// SpeContext carries a deferred-output tag) the put is issued on that
/// tag and NOT waited for: the dispatcher fences the tag once per drained
/// batch, so this request's output transfer overlaps the next request's
/// input DMA. Functionally safe either way — the simulated MFC copies
/// data at issue time (hardware would double-buffer the output area).
void emit_result(const void* ls, std::uint64_t ea, std::uint32_t bytes);

/// Multi-buffered streaming of consecutive image rows through the local
/// store — the paper's "double and triple buffering" optimization. With
/// depth 1 the kernel stalls on every block (the naive ports); with depth
/// 2-3 the next block's DMA overlaps the current block's compute.
class RowStreamer {
 public:
  /// Streams rows [row_begin, row_end) of an image whose rows start at
  /// `base_ea + row * stride`. Each block holds `rows_per_block` rows.
  /// `depth` buffers are allocated from the local store.
  RowStreamer(std::uint64_t base_ea, std::uint32_t stride, int row_begin,
              int row_end, int rows_per_block, int depth);

  struct Block {
    const std::uint8_t* data;  // rows_in_block rows, `stride` apart
    int first_row;
    int rows;
  };

  /// True while blocks remain.
  bool has_next() const { return next_row_ < row_end_; }

  /// Waits for the oldest in-flight block and kicks off the next prefetch.
  Block next();

 private:
  void issue(int slot);

  std::uint64_t base_ea_;
  std::uint32_t stride_;
  int row_end_;
  int rows_per_block_;
  int depth_;
  int next_row_;       // next row to produce to the caller
  int next_fetch_;     // next row to start fetching
  std::uint8_t* buf_[3] = {};
  int buf_first_[3] = {};
  int buf_rows_[3] = {};
  int head_ = 0;       // slot of the oldest in-flight block
  int prev_slot_ = -1;  // slot consumed by the previous next() call
};

// Host lanes of the charge-once row bodies: GCC/Clang generic vectors,
// which the default ISA lowers to native SIMD.
typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef std::uint8_t u8x16 __attribute__((vector_size(16)));
typedef std::uint16_t u16x8 __attribute__((vector_size(16)));
typedef std::uint32_t u32x4 __attribute__((vector_size(16)));

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the RGB word gathers read channels from little-endian words");

/// The 32-bit word at `p`: red, green and blue in bytes 0-2 when `p` is a
/// pixel.
inline std::int32_t rgb_word(const std::uint8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Four pixels whose bytes start at `px` and lie `step` pixels apart,
/// one per word lane: red in bits 0-7, green 8-15, blue 16-23 (bits 24-31
/// hold the next pixel's red, or 0). The last pixel's word is read from
/// the byte before it and shifted down, so the gather reads no byte past
/// that pixel's blue: a row's last pixel may end its row.
inline i32x4 rgb_words4(const std::uint8_t* px, int step) {
  const int s = 3 * step;
  const auto last = static_cast<std::uint32_t>(rgb_word(px + 3 * s - 1));
  return i32x4{rgb_word(px), rgb_word(px + s), rgb_word(px + 2 * s),
               static_cast<std::int32_t>(last >> 8)};
}

/// Packs the low bytes of four word vectors into 16 bytes, byte 4k + j
/// from lane k of `v[j]`: the store order of 16 pixels gathered as
/// rgb_words4(px + 3j, 4).
inline u8x16 pack_lanes(const i32x4 (&v)[4]) {
  return (u8x16)((u32x4)v[0] | ((u32x4)v[1] << 8) | ((u32x4)v[2] << 16) |
                 ((u32x4)v[3] << 24));
}

// An unaligned 16-byte load, the SPU way: one aligned quadword vld (odd
// pipe), plus a second vld and a merging shuffle when the address is not
// 16-aligned. Row bodies count their misaligned loads and charge them
// with the rest of the row.
inline constexpr double kLoadOdd = 1;
inline constexpr double kMisalignedLoadOdd = 2;

/// 1 when an unaligned load from `p` needs the second vld and shuffle.
inline int misaligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 16 != 0;
}

}  // namespace cellport::kernels
