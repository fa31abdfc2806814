#include "kernels/common.h"

#include <algorithm>

#include "support/error.h"

namespace cellport::kernels {

using namespace cellport::sim;
using namespace cellport::spu;

void dma_in(void* ls, std::uint64_t ea, std::uint32_t bytes, unsigned tag) {
  auto* dst = static_cast<std::uint8_t*>(ls);
  while (bytes > 0) {
    std::uint32_t chunk = std::min<std::uint32_t>(bytes, 16 * 1024);
    mfc_get(dst, ea, chunk, tag);
    dst += chunk;
    ea += chunk;
    bytes -= chunk;
  }
}

void dma_out(const void* ls, std::uint64_t ea, std::uint32_t bytes,
             unsigned tag) {
  const auto* src = static_cast<const std::uint8_t*>(ls);
  while (bytes > 0) {
    std::uint32_t chunk = std::min<std::uint32_t>(bytes, 16 * 1024);
    mfc_put(src, ea, chunk, tag);
    src += chunk;
    ea += chunk;
    bytes -= chunk;
  }
}

void emit_result(const void* ls, std::uint64_t ea, std::uint32_t bytes) {
  SpeContext* ctx = current_spe();
  int defer = ctx != nullptr ? ctx->defer_out_tag() : -1;
  if (defer < 0) {
    dma_out(ls, ea, bytes, 0);
    mfc_write_tag_mask(1u << 0);
    mfc_read_tag_status_all();
    return;
  }
  dma_out(ls, ea, bytes, static_cast<unsigned>(defer));
}

RowStreamer::RowStreamer(std::uint64_t base_ea, std::uint32_t stride,
                         int row_begin, int row_end, int rows_per_block,
                         int depth)
    : base_ea_(base_ea),
      stride_(stride),
      row_end_(row_end),
      rows_per_block_(rows_per_block),
      depth_(depth),
      next_row_(row_begin),
      next_fetch_(row_begin) {
  if (depth < 1 || depth > 3) {
    throw cellport::ConfigError("RowStreamer depth must be 1..3");
  }
  if (rows_per_block < 1) {
    throw cellport::ConfigError("RowStreamer needs >= 1 row per block");
  }
  // Validate the requested block shape against what is actually left in
  // the local store and clamp rather than letting the bump allocator blow
  // up mid-prime. 16 bytes of alignment slack are reserved per buffer.
  const std::size_t budget = sim::spu_ls_free();
  const std::size_t per_row = stride_;
  const std::size_t overhead = static_cast<std::size_t>(depth_) * 16;
  if (budget < overhead + static_cast<std::size_t>(depth_) * per_row) {
    throw cellport::ConfigError(
        "RowStreamer: local store cannot hold even one row per buffer");
  }
  const std::size_t max_rows =
      (budget - overhead) / (static_cast<std::size_t>(depth_) * per_row);
  if (static_cast<std::size_t>(rows_per_block_) > max_rows) {
    rows_per_block_ = static_cast<int>(max_rows);
  }
  for (int d = 0; d < depth_; ++d) {
    buf_[d] = static_cast<std::uint8_t*>(spu_ls_alloc(
        static_cast<std::size_t>(rows_per_block_) * stride_, 16));
  }
  // Prime the pipeline: issue up to `depth` prefetches.
  for (int d = 0; d < depth_ && next_fetch_ < row_end_; ++d) issue(d);
}

void RowStreamer::issue(int slot) {
  int rows = std::min(rows_per_block_, row_end_ - next_fetch_);
  buf_first_[slot] = next_fetch_;
  buf_rows_[slot] = rows;
  dma_in(buf_[slot],
         base_ea_ + static_cast<std::uint64_t>(next_fetch_) * stride_,
         static_cast<std::uint32_t>(rows) * stride_,
         static_cast<unsigned>(slot + 1));
  next_fetch_ += rows;
}

RowStreamer::Block RowStreamer::next() {
  if (!has_next()) {
    throw cellport::ConfigError("RowStreamer::next past the end");
  }
  // The block handed out by the previous call is done now; its slot can
  // be re-armed with the next prefetch. (Deferring the re-arm to here —
  // rather than re-issuing immediately after the wait — is what keeps the
  // caller's current block stable while `depth-1` fetches stay in
  // flight. With depth 1 this degenerates to issue/wait/process serially:
  // the stall the naive single-buffered ports pay.)
  if (prev_slot_ >= 0 && next_fetch_ < row_end_) issue(prev_slot_);
  int slot = head_;
  mfc_write_tag_mask(1u << static_cast<unsigned>(slot + 1));
  mfc_read_tag_status_all();
  Block b{buf_[slot], buf_first_[slot], buf_rows_[slot]};
  next_row_ = b.first_row + b.rows;
  prev_slot_ = slot;
  head_ = (head_ + 1) % depth_;
  return b;
}

}  // namespace cellport::kernels
