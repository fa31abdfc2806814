// cellexec: the plan builder — the only code that knows how each
// extraction strategy splits an image and how each scenario routes
// detection.
#include <algorithm>

#include "balance/steal.h"
#include "features/texture.h"
#include "marvel/cell_engine.h"
#include "support/error.h"

namespace cellport::marvel {

void CellEngine::init_plan(ImagePlan& p, int max_models) {
  const bool sharded = scenario_ == Scenario::kSharded;
  const std::size_t d = detect_lanes();
  const auto spu_run = static_cast<int>(kernels::SPU_Run);
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
  for (int k = detect_begin_; k < static_cast<int>(lanes_.size()); ++k) {
    if (std::any_of(p.detect.tasks.begin(), p.detect.tasks.end(),
                    [k](const Task& t) { return t.lane == k; })) {
      p.detect.lanes.push_back({k, 0});
    }
  }
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
  Stage& x = p.extract;
  x.tasks.clear();
  x.lanes.clear();
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
    // A static split leaves a lane idle when its range is empty (an image
    // of fewer Haar tiles than lanes); the steal loop drives every lane.
    const std::vector<shard::Range>& rows = p.slots[0].rows;
    for (int k = 0; k < lanes; ++k) {
      if (balanced_ || !rows[static_cast<std::size_t>(k)].empty()) {
        x.lanes.push_back({k, 0});
      }
    }
    return;
  }
  // Per-feature: one call per slot on its lane. cellshard: the shard
  // plan is fixed, the ranges follow this image's shape.
  const bool sharded = scenario_ == Scenario::kSharded;
  p.partials = sharded ? TaskKind::kShard : TaskKind::kFeature;
  for (int s = 0; s < 4; ++s) {
    const FeatureSlot& slot = slots_[s];
    for (int j = 0; j < slot.lanes; ++j) {
      x.lanes.push_back({slot.first_lane + j, s});
    }
    if (sharded) {
      plan_ranges(p, s,
                  s == shard::kSlotTx ? shard::split_tiles(h, slot.lanes)
                                      : shard::split_rows(h, slot.lanes),
                  TaskKind::kShard, slot.first_lane, false);
      continue;
    }
    ImagePlan::Slot& ps = p.slots[s];
    x.tasks.push_back({TaskKind::kFeature, s, 0, slot.first_lane,
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
    p.extract.tasks.push_back({kind, s, index,
                               stolen ? -1 : first_lane + index, opcode, r,
                               ps.range_msgs[j].ea(), ps.parts[j].data()});
  }
}

}  // namespace cellport::marvel
