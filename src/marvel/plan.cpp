// cellexec: the plan builder — the only code that knows how an image is
// ingested, how each extraction strategy splits it and how each scenario
// routes detection.
#include <algorithm>

#include "balance/steal.h"
#include "features/texture.h"
#include "img/ppm.h"
#include "marvel/cell_engine.h"
#include "support/error.h"

namespace cellport::marvel {

void CellEngine::init_plan(ImagePlan& p, int max_models) {
  const bool sharded = scenario_ == Scenario::kSharded;
  const std::size_t d = detect_lanes();
  const auto spu_run = static_cast<int>(kernels::SPU_Run);
  p.feed_msgs = std::vector<port::WrappedMessage<kernels::FeedMsg>>(d);
  for (int s = 0; s < 4; ++s) {
    const FeatureSlot& slot = slots_[s];
    ImagePlan::Slot& ps = p.slots[s];
    const auto full = static_cast<int>(slot.set->models.size());
    ps.scored = max_models > 0 ? std::min(full, max_models) : full;
    // Feature output buffers are padded to 8 floats so every kernel's
    // (16-byte-granular) result DMA fits.
    ps.out = AlignedBuffer<float>(
        round_up(static_cast<std::size_t>(slot.dim), 8));
    ps.scores = AlignedBuffer<double>(round_up(slot.set->models.size(), 2));
    // The detection message reads this plan's feature vector and writes
    // its scores; the model descriptors stay shared with the engine.
    kernels::DetectMsg& dm = *ps.detect_msg;
    dm.feature_ea = reinterpret_cast<std::uint64_t>(ps.out.data());
    dm.dim = slot.dim;
    dm.num_models = ps.scored;
    dm.models_ea = reinterpret_cast<std::uint64_t>(slot.descs.data());
    dm.scores_ea = reinterpret_cast<std::uint64_t>(ps.scores.data());
    dm.buffering = buffering_;
    if (!sharded) {
      // The shared CD SPE, or slot s's own detector under kMultiSPE2.
      const int lane =
          detect_begin_ + (scenario_ == Scenario::kMultiSPE2 ? s : 0);
      p.detect.tasks.push_back({TaskKind::kDetect, s, 0, lane, spu_run,
                                {0, ps.scored}, ps.detect_msg.ea(),
                                ps.scores.data()});
      continue;
    }
    // cellshard: contiguous model blocks, block b on detection lane b.
    ps.blocks = shard::split_rows(ps.scored, static_cast<int>(d));
    ps.block_msgs = std::vector<port::WrappedMessage<kernels::DetectMsg>>(d);
    ps.block_scores.resize(d);
    for (std::size_t b = 0; b < d; ++b) {
      ps.block_scores[b] = AlignedBuffer<double>(ps.scores.size());
      const shard::Range& block = ps.blocks[b];
      if (block.empty()) continue;
      kernels::DetectMsg& bm = *ps.block_msgs[b];
      bm = dm;
      bm.model_begin = block.begin;
      bm.num_models = block.count();
      bm.scores_ea = reinterpret_cast<std::uint64_t>(ps.block_scores[b].data());
      p.detect.tasks.push_back(
          {TaskKind::kBlock, s, static_cast<int>(b),
           detect_begin_ + static_cast<int>(b), spu_run, block,
           ps.block_msgs[b].ea(), ps.block_scores[b].data()});
    }
  }
}

// ---- cellfeed: SPE-resident ingest of PPM carriers ----
//
// The paper's strategy applied to the last PPE-serial stage: the bytes
// of a raw frame never cross the PPE. The header is parsed there (it is
// a handful of bytes and decides the geometry); the packed pixel rows
// are gathered by DMA lists, shifted/unpacked, and scattered as whole
// destination rows by the feed kernel, with the image's rows split
// across the scenario's detect-side SPEs — which are idle during every
// schedule's decode phase, including the stream's decode-ahead overlap.

void CellEngine::build_ingest(const img::SicEncoded& image, ImagePlan& p) {
  sim::ScalarContext& ppe = machine_.ppe();
  p.degraded.clear();
  p.ingest.tasks.clear();
  p.pixels = img::RgbImage();  // the last image dies before the next decodes
  if (feed_ && img::is_ppm(image)) {
    // The strict shared parser: a malformed header throws the exact
    // IoError the PPE decode path throws (accept/reject is identical).
    const img::PpmHeader hdr =
        img::parse_p6_header(image.bytes.data(), image.bytes.size());
    const std::size_t row_bytes = static_cast<std::size_t>(hdr.width) * 3;
    const std::size_t payload =
        row_bytes * static_cast<std::size_t>(hdr.height);
    if (hdr.pixel_offset + payload > image.bytes.size()) {
      throw cellport::IoError("truncated P6 pixel data");
    }
    // Feed eligibility: one list element per row (the MFC 16KiB cap
    // bounds the widened gather window, and with it the scatter stride),
    // and the carrier must keep >= 15 readable bytes on both sides of the
    // payload because gather windows anchor on enclosing 16-byte
    // boundaries (img::ppm_encode guarantees the slack; hand-built
    // carriers without it decode on the PPE).
    const bool fits_list =
        cellport::round_up(row_bytes + 15, 16) <= sim::Mfc::kMaxTransfer;
    const bool slack =
        hdr.pixel_offset >= 15 &&
        image.bytes.size() >= hdr.pixel_offset + payload + 15;
    if (fits_list && slack) {
      {
        probe::ProbeSpan span(prt(), probe::Phase::kDecode, ppe,
                              "feed_header");
        // Raw frames are memory-resident producer buffers: no file
        // open, and only the header bytes ever touch the PPE.
        ppe.charge_io(hdr.pixel_offset, /*open_file=*/false);
        ppe.charge(sim::OpClass::kIntAlu, 32);  // token scan
      }
      p.pixels = img::RgbImage(hdr.width, hdr.height);
      // One task per detection lane's row range (its 10 message stores
      // are charged right before its send).
      const std::vector<shard::Range> rows = shard::split_rows(
          hdr.height, static_cast<int>(p.feed_msgs.size()));
      for (std::size_t j = 0; j < rows.size(); ++j) {
        if (rows[j].empty()) continue;
        *p.feed_msgs[j] = {
            .src_ea = reinterpret_cast<std::uint64_t>(image.bytes.data() +
                                                      hdr.pixel_offset),
            .dst_ea = reinterpret_cast<std::uint64_t>(p.pixels.data()),
            .width = hdr.width,
            .height = hdr.height,
            .dst_stride = p.pixels.stride(),
            .row_begin = rows[j].begin,
            .row_end = rows[j].end};
        const auto index = static_cast<int>(j);
        p.ingest.tasks.push_back(
            {TaskKind::kFeed, 0, index, detect_begin_ + index,
             static_cast<int>(kernels::SPU_Run_Feed), rows[j],
             p.feed_msgs[j].ea(), p.pixels.data()});
      }
      return;
    }
  }
  probe::ProbeSpan span(prt(), probe::Phase::kDecode, ppe, "sic_decode");
  ppe.charge_io(image.bytes.size(), /*open_file=*/true);
  p.pixels = img::sic_decode(image, &ppe);
}

void CellEngine::build_plan(ImagePlan& p) {
  sim::ScalarContext& ppe = machine_.ppe();
  const img::RgbImage& pixels = p.pixels;
  for (int s = 0; s < 4; ++s) {
    // Listing 4's FILL_MSG_FROM_COLORIMAGE: wrap the class members into
    // the aligned message structure.
    ppe.charge(sim::OpClass::kStore, 12);
    kernels::ImageMsg& m = *p.slots[s].msg;
    m.pixels_ea = reinterpret_cast<std::uint64_t>(pixels.data());
    m.width = pixels.width();
    m.height = pixels.height();
    m.stride = pixels.stride();
    m.buffering = buffering_;
    m.out_ea = reinterpret_cast<std::uint64_t>(p.slots[s].out.data());
    m.out_count = slots_[s].dim;
  }
  p.extract.tasks.clear();
  p.msgs_filled = 0;
  p.stolen = balanced_;
  const int h = pixels.height();
  if (fused_ || balanced_) {
    // cellfuse: one single-pass call per tile-aligned row range on the
    // fused lanes; cellbalance splits finer than the lane count and
    // leaves the tasks unbound for the steal loop.
    if (pixels.width() < (1 << features::kTextureLevels) ||
        h < (1 << features::kTextureLevels)) {
      throw cellport::ConfigError(
          "image too small for the 4-level wavelet texture");
    }
    const auto lanes = static_cast<int>(fused_lanes_);
    p.partials = TaskKind::kFused;
    plan_ranges(p, 0,
                balanced_ ? balance::split_tasks(h, lanes)
                          : shard::split_fused(h, lanes),
                TaskKind::kFused, 0, balanced_);
    return;
  }
  // Per-feature: one call per slot on its lane. cellshard: the shard
  // plan is fixed, the ranges follow this image's shape.
  const bool sharded = scenario_ == Scenario::kSharded;
  p.partials = sharded ? TaskKind::kShard : TaskKind::kFeature;
  for (int s = 0; s < 4; ++s) {
    const FeatureSlot& slot = slots_[s];
    if (sharded) {
      plan_ranges(p, s,
                  s == shard::kSlotTx ? shard::split_tiles(h, slot.lanes)
                                      : shard::split_rows(h, slot.lanes),
                  TaskKind::kShard, slot.first_lane, false);
      continue;
    }
    ImagePlan::Slot& ps = p.slots[s];
    p.extract.tasks.push_back({TaskKind::kFeature, s, 0, slot.first_lane,
                       extract_opcode(slot), {0, h}, ps.msg.ea(),
                       ps.out.data()});
  }
}

void CellEngine::plan_ranges(ImagePlan& p, int s,
                             std::vector<shard::Range> rows, TaskKind kind,
                             int first_lane, bool stolen) {
  const int w = p.pixels.width();
  const int h = p.pixels.height();
  const auto opcode = static_cast<int>(
      kind == TaskKind::kFused ? kernels::SPU_Run_Fused : kernels::SPU_Run);
  ImagePlan::Slot& ps = p.slots[s];
  ps.rows = std::move(rows);
  const std::size_t n = ps.rows.size();
  if (ps.parts.size() < n) ps.parts.resize(n);
  if (ps.range_msgs.size() < n) ps.range_msgs.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const shard::Range& r = ps.rows[j];
    if (r.empty()) continue;
    const std::size_t bytes =
        kind == TaskKind::kFused
            ? kernels::fused_partial_bytes(w, h, r.begin, r.end)
            : shard::shard_part_bytes(s, r);
    if (ps.parts[j].bytes() < bytes) {
      ps.parts[j] = AlignedBuffer<std::uint8_t>(bytes);
    }
    // The slot message plus the range, writing the raw partial instead
    // of the feature vector.
    kernels::ImageMsg& m = *ps.range_msgs[j];
    m = *ps.msg;
    m.row_begin = r.begin;
    m.row_end = r.end;
    m.out_ea = reinterpret_cast<std::uint64_t>(ps.parts[j].data());
    ++p.msgs_filled;
    const auto index = static_cast<int>(j);
    const auto offset = static_cast<int>(
        kind == TaskKind::kFused ? (j + p.queue_pos) % n : j);
    p.extract.tasks.push_back({kind, s, index,
                               stolen ? -1 : first_lane + offset, opcode, r,
                               ps.range_msgs[j].ea(), ps.parts[j].data()});
  }
}

}  // namespace cellport::marvel
