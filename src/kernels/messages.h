// Wrapper-structure definitions shared between the PPE stubs and the SPE
// kernels (the paper's Section 3.3 "common data structure" / Listing 4's
// FILL_MSG_FROM_COLORIMAGE pattern).
//
// Every struct is a 16-byte-padded POD: its address travels through the
// mailbox, the kernel DMAs the struct first, then the buffers it points
// to. Output buffers are included in the wrapper, "for simplicity", as in
// the paper.
#pragma once

#include <cstdint>

namespace cellport::kernels {

/// Opcodes of the MARVEL kernels (Listing 1's SPU_Run_*). One module may
/// register several related functions (the paper clusters methods into
/// kernels); the optimized and naive entry points share a module.
inline constexpr std::uint32_t SPU_Run = 1;        // optimized kernel body
inline constexpr std::uint32_t SPU_Run_Naive = 2;  // pre-optimization port
/// CH only: the lookup-table variant ("change the algorithm for better
/// vectorization"): a 32 KiB 5-bit-per-channel bin table resident in the
/// LS replaces the per-pixel HSV arithmetic entirely, at the cost of
/// quantization fidelity. bench_ablation measures both sides.
inline constexpr std::uint32_t SPU_Run_Lut = 3;
/// cellfeed ingest (registered in every extract module so feed rows ride
/// whatever SPEs the scenario already scheduled): DMA-list gather of
/// packed P6 pixel rows, LS unpack to the aligned row stride, DMA-list
/// scatter of finished rows — triple-buffered per tile. (Opcode 4 was
/// ConceptDet's retired kNN entry point.)
inline constexpr std::uint32_t SPU_Run_Feed = 5;
/// cellfuse single-pass extraction (registered in every extract module so
/// fused lanes ride whatever SPEs the scenario already scheduled): one
/// triple-buffered pass over the row range, one RGB->HSV and one RGB->gray
/// conversion per pixel, emitting ALL FOUR raw-partial layouts (CH/CC/EH
/// count words then per-tile TX moment doubles — see the kFused* layout
/// below) in a single invocation. The PPE reduces fused partials with the
/// same fixed-order merges as cellshard, so fused runs stay bit-exact
/// with the per-feature kernels.
inline constexpr std::uint32_t SPU_Run_Fused = 6;

/// DMA buffering depth for the optimized kernels (ablation knob; the
/// paper quotes "double and triple buffering of DMA transfers").
enum BufferingDepth : std::int32_t {
  kSingleBuffer = 1,
  kDoubleBuffer = 2,
  kTripleBuffer = 3,
};

/// Image-input message used by the four feature-extraction kernels.
struct alignas(16) ImageMsg {
  std::uint64_t pixels_ea = 0;  // interleaved RGB8 rows
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::int32_t stride = 0;      // bytes between rows (16-byte multiple)
  std::int32_t buffering = kDoubleBuffer;
  std::uint64_t out_ea = 0;     // float output buffer
  std::int32_t out_count = 0;   // number of floats expected
  /// Rows per DMA block for streaming kernels; 0 picks the kernel's
  /// default (ablation knob: LS pressure vs DMA count).
  std::int32_t block_rows = 0;
  /// cellshard: row range [row_begin, row_end) this invocation covers.
  /// row_end == 0 means the whole image (legacy full-frame call, final
  /// normalized output). row_end > 0 selects shard mode: the kernel
  /// processes only its range and emits a RAW PARTIAL (integer bin
  /// counts / per-tile moments, see shard/partials.h) to out_ea; the PPE
  /// reduces partials and applies the shared normalization.
  std::int32_t row_begin = 0;
  std::int32_t row_end = 0;
};

/// cellfeed ingest message (SPU_Run_Feed): the kernel gathers the packed
/// w*3-byte pixel rows of a binary P6 stream straight out of main memory
/// with one DMA-list element per row (source rows are byte-packed, so
/// each element covers the enclosing 16-byte-aligned window and the
/// kernel shifts by the in-quadword offset), unpacks them to the
/// destination image's 16-byte row stride in the LS, and scatters whole
/// finished rows back with a second DMA list. Tiles of rows are
/// multi-buffered: get tile w+2 / unpack tile w+1 / put tile w.
struct alignas(16) FeedMsg {
  std::uint64_t src_ea = 0;     // first pixel byte of the P6 stream
  std::uint64_t dst_ea = 0;     // row 0 of the destination RgbImage
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::int32_t dst_stride = 0;  // bytes between dest rows (16B multiple)
  std::int32_t buffering = kTripleBuffer;
  /// Row range [row_begin, row_end) this invocation ingests (cellshard
  /// splits an image's rows across the scenario's SPEs).
  std::int32_t row_begin = 0;
  std::int32_t row_end = 0;
  /// Rows per DMA-list tile; 0 picks the kernel default (LS-clamped).
  std::int32_t rows_per_tile = 0;
  std::int32_t pad_ = 0;
};

/// Concept-detection message: one feature vector against one model set.
struct alignas(16) DetectMsg {
  std::uint64_t feature_ea = 0;   // float[dim], 16-byte aligned
  std::int32_t dim = 0;
  std::int32_t num_models = 0;
  std::uint64_t models_ea = 0;    // DetectModelDesc[num_models]
  std::uint64_t scores_ea = 0;    // double[num_models] output
  std::int32_t buffering = kDoubleBuffer;
  /// cellshard: first model of this invocation's concept block. The
  /// kernel reads descriptors starting at
  /// `models_ea + model_begin * sizeof(DetectModelDesc)` and scores
  /// `num_models` of them into scores_ea (the PPE points scores_ea at a
  /// per-shard staging buffer and concatenates). 0 = legacy full set.
  std::int32_t model_begin = 0;
};

// ---- cellshard: raw-partial layout shared between SPE kernels and the
// PPE reducer (shard::Reducer). A shard invocation (ImageMsg.row_end > 0)
// writes these to out_ea instead of the normalized float output. ----

/// CH partial: uint32[kShardChWords] raw bin counts (168 = kHsvBins
/// rounded up to 4; pads stay zero).
inline constexpr std::int32_t kShardChWords = 168;
/// CC partial: uint32[kShardCcWords] — same[168] then possible[168],
/// contiguous.
inline constexpr std::int32_t kShardCcWords = 336;
/// EH partial: uint32[kShardEhWords] raw (angle, magnitude) bin counts.
inline constexpr std::int32_t kShardEhWords = 64;
/// TX partials are PER 16-INPUT-ROW TILE, not per shard: 12 doubles per
/// tile (4 Haar levels x {lh, hl, hh} detail energies). Tile-granular
/// partials keep the double summation order independent of the shard
/// plan, so sharded and unsharded runs are bit-exact. Shard row ranges
/// for TX must start on a tile boundary.
inline constexpr std::int32_t kTxTileRows = 16;
inline constexpr std::int32_t kTxTileDoubles = 12;
/// Tiles covering input rows [0, 2*(h/2)) — the even-height region every
/// Haar level consumes.
inline constexpr std::int32_t tx_num_tiles(std::int32_t h) {
  return (2 * (h / 2) + kTxTileRows - 1) / kTxTileRows;
}

// ---- cellfuse: fused raw-partial layout (SPU_Run_Fused). One invocation
// emits every feature's partial for its row range as a single contiguous
// block so the PPE reduces a fused lane exactly like four shard lanes. ----

/// Word offsets of the count-typed sections inside the fused partial
/// (uint32 words): CH bins, then CC same/possible, then EH bins.
inline constexpr std::int32_t kFusedChWords = kShardChWords;              // 0..167
inline constexpr std::int32_t kFusedCcOffset = kShardChWords;             // 168
inline constexpr std::int32_t kFusedEhOffset = kShardChWords + kShardCcWords;  // 504
inline constexpr std::int32_t kFusedCountWords =
    kShardChWords + kShardCcWords + kShardEhWords;  // 568
/// Bytes of the count block. 568 words * 4 = 2272 bytes, a 16-byte
/// multiple, so the TX tile doubles that follow stay 16-byte aligned.
inline constexpr std::int32_t kFusedCountBytes = kFusedCountWords * 4;

/// TX tile doubles follow the count block at byte offset kFusedCountBytes
/// (kTxTileDoubles per covered tile, same layout as a TX shard partial).
/// Images narrower or shorter than one Haar tile (w < 16 or h < 16) carry
/// no texture output — the fused partial is then just the count block.
inline constexpr std::int32_t fused_tx_doubles(std::int32_t w, std::int32_t h,
                                               std::int32_t row_begin,
                                               std::int32_t row_end) {
  if (w < kTxTileRows || h < kTxTileRows) return 0;
  const std::int32_t heff = 2 * (h / 2);
  const std::int32_t in_end = row_end < heff ? row_end : heff;
  if (in_end <= row_begin) return 0;
  const std::int32_t t0 = row_begin / kTxTileRows;
  const std::int32_t t1 = (in_end + kTxTileRows - 1) / kTxTileRows;
  return (t1 - t0) * kTxTileDoubles;
}

/// Total fused-partial bytes for a lane covering [row_begin, row_end).
inline constexpr std::int32_t fused_partial_bytes(std::int32_t w, std::int32_t h,
                                                  std::int32_t row_begin,
                                                  std::int32_t row_end) {
  return kFusedCountBytes + fused_tx_doubles(w, h, row_begin, row_end) * 8;
}

/// Per-model descriptor the detection kernel walks (built by the PPE stub
/// from the SvmModel set; support vectors stay in main memory and are
/// streamed by DMA).
struct alignas(16) DetectModelDesc {
  std::uint64_t sv_ea = 0;     // float[num_sv * sv_stride]
  std::uint64_t coef_ea = 0;   // float[num_sv] (16-byte padded)
  std::int32_t num_sv = 0;
  std::int32_t sv_stride = 0;  // floats per SV row (16-byte multiple)
  float gamma = 0.0f;
  float rho = 0.0f;
  std::int32_t kernel_type = 1;  // SvmKernelType
  std::int32_t pad_[3] = {};
};

}  // namespace cellport::kernels
