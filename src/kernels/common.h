// Shared SPE-side helpers: bulk DMA, multi-buffered row streaming, and
// the host vectors and load costs of the charge-once row bodies.
#pragma once

#include <cstdint>

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
