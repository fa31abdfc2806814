#include "marvel/cell_engine.h"

#include <algorithm>
#include <cstring>

#include "balance/digest.h"
#include "balance/steal.h"
#include "features/color_correlogram.h"
#include "features/color_histogram.h"
#include "features/edge_histogram.h"
#include "features/texture.h"
#include "kernels/cc_kernel.h"
#include "kernels/cd_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "kernels/tx_kernel.h"
#include "shard/mirror.h"
#include "shard/reducer.h"
#include "support/error.h"

namespace cellport::marvel {

namespace {

/// Feature output buffers are padded to 8 floats so every kernel's
/// (16-byte-granular) result DMA fits.
std::size_t padded_dim(int dim) {
  return cellport::round_up(static_cast<std::size_t>(dim), 8);
}

}  // namespace

CellEngine::CellEngine(sim::Machine& machine,
                       const std::string& library_path, Scenario scenario,
                       kernels::BufferingDepth buffering, bool use_naive,
                       guard::GuardPolicy guard)
    : machine_(machine),
      scenario_(scenario),
      buffering_(buffering),
      use_naive_(use_naive),
      profiler_(machine.ppe()),
      guard_(guard) {
  images_counter_ = &machine_.metrics().counter("marvel.images_analyzed");
  feed_images_counter_ = &machine_.metrics().counter("feed.images");
  feed_rows_counter_ = &machine_.metrics().counter("feed.rows");
  feed_fallback_counter_ =
      &machine_.metrics().counter("feed.ppe_fallbacks");
  fuse_images_counter_ = &machine_.metrics().counter("fuse.images");
  {
    // One-time overhead: the model library load, on the PPE.
    port::Profiler::Scope probe(profiler_, kPhaseStartup);
    sim::SimTime t0 = machine_.ppe().now_ns();
    models_ = learn::load_library(library_path, &machine_.ppe());
    startup_ns_ = machine_.ppe().now_ns() - t0;
  }

  const struct {
    port::KernelModule& (*module)();
    const char* phase;
    int dim;
    const learn::ConceptModelSet* set;
    const char* name;
    features::FeatureVector (*ref)(const img::RgbImage&,
                                   sim::ScalarContext*);
  } config[4] = {
      {&kernels::ch_module, kPhaseCh, features::kColorHistogramDim,
       &models_.color_histogram, "color_histogram",
       &features::extract_color_histogram},
      {&kernels::cc_module, kPhaseCc, features::kColorCorrelogramDim,
       &models_.color_correlogram, "color_correlogram",
       &features::extract_color_correlogram},
      {&kernels::tx_module, kPhaseTx, features::kTextureDim,
       &models_.texture, "texture", &features::extract_texture},
      {&kernels::eh_module, kPhaseEh, features::kEdgeHistogramDim,
       &models_.edge_histogram, "edge_histogram",
       &features::extract_edge_histogram},
  };

  // cellshard: choose the shard plan for this machine shape up front;
  // the lane placement below follows it.
  if (scenario_ == Scenario::kSharded) {
    plan_ = shard::plan_shards(machine_.num_spes());
    auto& metrics = machine_.metrics();
    metrics.gauge("shard.plan.ch").set(plan_.extract_shards[shard::kSlotCh]);
    metrics.gauge("shard.plan.cc").set(plan_.extract_shards[shard::kSlotCc]);
    metrics.gauge("shard.plan.tx").set(plan_.extract_shards[shard::kSlotTx]);
    metrics.gauge("shard.plan.eh").set(plan_.extract_shards[shard::kSlotEh]);
    metrics.gauge("shard.plan.cd").set(plan_.detect_spes);
    shard_reduce_counter_ = &metrics.counter("shard.reduces");
    // cellfuse: the fused lane/detect split for the same machine shape
    // (consulted only when set_fused(true); lanes ride the extract-shard
    // SPEs pinned below, capped at this count).
    fused_plan_ = shard::plan_fused(machine_.num_spes());
    metrics.gauge("shard.plan.fused_lanes").set(fused_plan_.lanes);
    metrics.gauge("shard.plan.fused_cd").set(fused_plan_.detect_spes);
  }

  // Static schedule: one resident kernel per SPE (Section 3.3), one Lane
  // per role — the slots' extraction SPEs (or shards) first, then the
  // detection SPEs. A guarded engine builds guarded lanes on the same
  // placement; any SPE beyond the pinned set becomes a shared spare
  // retries may migrate to.
  const bool sharded = scenario_ == Scenario::kSharded;
  const int detect_n = sharded                            ? plan_.detect_spes
                       : scenario_ == Scenario::kMultiSPE2 ? 4
                                                           : 1;
  const int pinned = sharded ? plan_.spes_used() : 4 + detect_n;
  std::vector<int> spares;
  for (int s = pinned; s < machine_.num_spes(); ++s) spares.push_back(s);
  if (guard_.enabled) {
    health_ = std::make_unique<guard::SpeHealth>(machine_, guard_.retry);
    fallback_counter_ = &machine_.metrics().counter("guard.ppe_fallbacks");
  }
  int spe = 0;
  for (int i = 0; i < 4; ++i) {
    const int n = sharded ? plan_.extract_shards[i] : 1;
    for (int j = 0; j < n; ++j) {
      slots_[i].lanes.emplace_back(config[i].module(), spe++, health_.get(),
                                   spares);
    }
  }
  for (int b = 0; b < detect_n; ++b) {
    detect_lanes_.emplace_back(kernels::cd_module(), spe++, health_.get(),
                               spares);
  }
  // cellfuse lanes ride the extraction SPEs slot-major; past the cap the
  // marginal lane costs more in per-lane overhead than it saves in span
  // (shard::plan_fused).
  const std::size_t fused_cap =
      sharded ? static_cast<std::size_t>(fused_plan_.lanes)
      : scenario_ == Scenario::kSingleSPE ? 1
                                          : 4;
  for (auto& slot : slots_) {
    for (Lane& lane : slot.lanes) {
      if (fused_lanes_.size() < fused_cap) fused_lanes_.push_back(&lane);
    }
  }

  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    slot.phase = config[i].phase;
    slot.dim = config[i].dim;
    slot.name = config[i].name;
    slot.ref_extract = config[i].ref;
    slot.out = cellport::AlignedBuffer<float>(padded_dim(config[i].dim));
    setup_detection(slot, *config[i].set);
  }
  if (scenario_ == Scenario::kSharded) setup_sharding();
}

void CellEngine::setup_sharding() {
  // Raw-partial bytes per shard: fixed for the counting kernels; TX is
  // tile-count dependent and (re)sized per image in prepare_shards.
  const std::size_t part_bytes[4] = {
      kernels::kShardChWords * sizeof(std::uint32_t),
      kernels::kShardCcWords * sizeof(std::uint32_t),
      0,
      kernels::kShardEhWords * sizeof(std::uint32_t),
  };
  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    const auto n = static_cast<std::size_t>(plan_.extract_shards[i]);
    slot.shard_msgs = std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
    slot.shard_parts.resize(n);
    if (part_bytes[i] > 0) {
      for (auto& p : slot.shard_parts) {
        p = cellport::AlignedBuffer<std::uint8_t>(part_bytes[i]);
      }
    }
  }
  // Detection staging: each block's kernel pads its score DMA to an even
  // count, so blocks land in per-block buffers and the PPE concatenates
  // the exact counts (writing into slot.scores directly would overlap at
  // odd block boundaries).
  std::size_t max_models = 0;
  for (const auto& slot : slots_) {
    max_models = std::max(max_models, slot.set->models.size());
  }
  const auto d = static_cast<std::size_t>(plan_.detect_spes);
  cd_block_msgs_ = std::vector<port::WrappedMessage<kernels::DetectMsg>>(d);
  cd_block_scores_.resize(d);
  for (auto& s : cd_block_scores_) {
    s = cellport::AlignedBuffer<double>(cellport::round_up(max_models, 2));
  }
}

void CellEngine::prepare_shards(const img::RgbImage& pixels) {
  const int h = pixels.height();
  std::uint64_t stores = 0;
  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    const int n = plan_.extract_shards[i];
    slot.shard_rows = i == shard::kSlotTx ? shard::split_tiles(h, n)
                                          : shard::split_rows(h, n);
    for (int j = 0; j < n; ++j) {
      const shard::Range& r = slot.shard_rows[static_cast<std::size_t>(j)];
      if (r.empty()) continue;
      if (i == shard::kSlotTx) {
        const auto bytes = static_cast<std::size_t>(
                               shard::tx_partial_doubles(r)) *
                           sizeof(double);
        auto& part = slot.shard_parts[static_cast<std::size_t>(j)];
        if (part.bytes() < bytes) {
          part = cellport::AlignedBuffer<std::uint8_t>(bytes);
        }
      }
      kernels::ImageMsg& m = *slot.shard_msgs[static_cast<std::size_t>(j)];
      m = *slot.msg;
      m.row_begin = r.begin;
      m.row_end = r.end;
      m.out_ea = reinterpret_cast<std::uint64_t>(
          slot.shard_parts[static_cast<std::size_t>(j)].data());
      stores += 4;
    }
  }
  machine_.ppe().charge(sim::OpClass::kStore, stores);
}

void CellEngine::setup_detection(FeatureSlot& slot,
                                 const learn::ConceptModelSet& set) {
  slot.set = &set;
  slot.descs = cellport::AlignedBuffer<kernels::DetectModelDesc>(
      set.models.size());
  for (std::size_t m = 0; m < set.models.size(); ++m) {
    const learn::SvmModel& model = set.models[m];
    kernels::DetectModelDesc& d = slot.descs[m];
    d.sv_ea = reinterpret_cast<std::uint64_t>(model.sv_data());
    d.coef_ea = reinterpret_cast<std::uint64_t>(model.coef().data());
    d.num_sv = model.num_sv();
    d.sv_stride = model.sv_stride();
    d.gamma = model.gamma();
    d.rho = model.rho();
    d.kernel_type = static_cast<std::int32_t>(model.kernel());
  }
  slot.scores = cellport::AlignedBuffer<double>(
      cellport::round_up(set.models.size(), 2));
  kernels::DetectMsg& msg = *slot.detect_msg;
  msg.feature_ea = reinterpret_cast<std::uint64_t>(slot.out.data());
  msg.dim = slot.dim;
  msg.num_models = static_cast<std::int32_t>(set.models.size());
  msg.models_ea = reinterpret_cast<std::uint64_t>(slot.descs.data());
  msg.scores_ea = reinterpret_cast<std::uint64_t>(slot.scores.data());
  msg.buffering = buffering_;
}

void CellEngine::fill_image_msg(FeatureSlot& slot,
                                const img::RgbImage& pixels) {
  // Listing 4's FILL_MSG_FROM_COLORIMAGE: wrap the class members into the
  // aligned message structure.
  machine_.ppe().charge(sim::OpClass::kStore, 12);
  kernels::ImageMsg& msg = *slot.msg;
  msg.pixels_ea = reinterpret_cast<std::uint64_t>(pixels.data());
  msg.width = pixels.width();
  msg.height = pixels.height();
  msg.stride = pixels.stride();
  msg.buffering = buffering_;
  msg.out_ea = reinterpret_cast<std::uint64_t>(slot.out.data());
  msg.out_count = slot.dim;
}

void CellEngine::collect(FeatureSlot& slot, features::FeatureVector& fv,
                         DetectionScores& scores) {
  // Copy results from the output buffers back into the class data
  // (Section 3.3, last step). Charged as the loads/stores it is.
  machine_.ppe().charge(sim::OpClass::kLoad,
                        static_cast<std::uint64_t>(slot.dim) +
                            slot.scores.size());
  machine_.ppe().charge(sim::OpClass::kStore,
                        static_cast<std::uint64_t>(slot.dim) +
                            slot.scores.size());
  fv.name = slot.name;
  fv.values.assign(slot.out.data(), slot.out.data() + slot.dim);
  scores.values.assign(slot.scores.data(),
                       slot.scores.data() + slot.set->models.size());
}

AnalysisResult CellEngine::collect_result() {
  AnalysisResult result;
  probe::ProbeSpan span(prt(), probe::Phase::kOutput, machine_.ppe(),
                        "collect");
  collect(slots_[0], result.color_histogram, result.ch_detect);
  collect(slots_[1], result.color_correlogram, result.cc_detect);
  collect(slots_[2], result.texture, result.tx_detect);
  collect(slots_[3], result.edge_histogram, result.eh_detect);
  result.degraded = std::move(degraded_current_);
  degraded_current_.clear();
  return result;
}

// ---- cellfeed: SPE-resident ingest of PPM carriers ----
//
// The paper's strategy applied to the last PPE-serial stage: the bytes
// of a raw frame never cross the PPE. The header is parsed there (it is
// a handful of bytes and decides the geometry); the packed pixel rows
// are gathered by DMA lists, shifted/unpacked, and scattered as whole
// destination rows by the feed kernel, with the image's rows split
// across the scenario's detect-side SPEs — which are idle during every
// schedule's decode phase, including the decode-ahead overlap of the
// pipelined batch and streaming modes.

img::RgbImage CellEngine::ingest(const img::SicEncoded& image) {
  sim::ScalarContext& ppe = machine_.ppe();
  if (feed_ && img::is_ppm(image)) {
    // The strict shared parser: a malformed header throws the exact
    // IoError the PPE decode path throws (accept/reject is identical).
    img::PpmHeader hdr =
        img::parse_p6_header(image.bytes.data(), image.bytes.size());
    const std::size_t row_bytes = static_cast<std::size_t>(hdr.width) * 3;
    const std::size_t payload =
        row_bytes * static_cast<std::size_t>(hdr.height);
    if (hdr.pixel_offset + payload > image.bytes.size()) {
      throw cellport::IoError("truncated P6 pixel data");
    }
    const std::size_t stride = cellport::round_up(row_bytes, 16);
    // Feed eligibility: one list element per row (the MFC 16KiB cap
    // bounds both the widened gather window and the scatter stride), and
    // the carrier must keep >= 15 readable bytes on both sides of the
    // payload because gather windows anchor on enclosing 16-byte
    // boundaries (img::ppm_encode guarantees the slack; hand-built
    // carriers without it decode on the PPE).
    const bool fits_list =
        cellport::round_up(row_bytes + 15, 16) <= sim::Mfc::kMaxTransfer &&
        stride <= sim::Mfc::kMaxTransfer;
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
      img::RgbImage dst(hdr.width, hdr.height);
      feed_image(image, hdr, dst);
      return dst;
    }
  }
  probe::ProbeSpan span(prt(), probe::Phase::kDecode, ppe, "sic_decode");
  ppe.charge_io(image.bytes.size(), /*open_file=*/true);
  return img::sic_decode(image, &ppe);
}

void CellEngine::feed_image(const img::SicEncoded& image,
                            const img::PpmHeader& hdr, img::RgbImage& dst) {
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kFeedDma, ppe, "feed_dma");
  const std::size_t n = detect_lanes_.size();
  if (feed_msgs_.size() < n) {
    feed_msgs_ = std::vector<port::WrappedMessage<kernels::FeedMsg>>(n);
  }
  const std::vector<shard::Range> rows =
      shard::split_rows(hdr.height, static_cast<int>(n));
  const auto src_ea = reinterpret_cast<std::uint64_t>(image.bytes.data() +
                                                      hdr.pixel_offset);
  const sim::SimTime sent = ppe.now_ns();
  for (std::size_t j = 0; j < n; ++j) {
    if (rows[j].empty()) continue;
    ppe.charge(sim::OpClass::kStore, 10);
    kernels::FeedMsg& m = *feed_msgs_[j];
    m.src_ea = src_ea;
    m.dst_ea = reinterpret_cast<std::uint64_t>(dst.data());
    m.width = hdr.width;
    m.height = hdr.height;
    m.dst_stride = dst.stride();
    m.buffering = kernels::kTripleBuffer;
    m.row_begin = rows[j].begin;
    m.row_end = rows[j].end;
    m.rows_per_tile = 0;
    detect_lanes_[j].send(static_cast<int>(kernels::SPU_Run_Feed),
                          feed_msgs_[j].ea());
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (rows[j].empty()) continue;
    const std::string tag = "feed[" + std::to_string(j) + "]";
    bool ok = true;
    try {
      ok = settle(detect_lanes_[j], tag, [] {}).ok;
    } catch (const cellport::Error&) {
      ok = false;  // plain lane fault: this lane's rows fall to the PPE
    }
    rt_.add_spe_span(probe::Phase::kFeedDma, tag, sent, ppe.now_ns());
    if (ok) {
      feed_rows_counter_->add(static_cast<std::uint64_t>(rows[j].count()));
    } else {
      feed_fallback_rows(image, hdr, rows[j], dst,
                         detect_lanes_[j].guarded());
    }
  }
  feed_images_counter_->add(1);
}

void CellEngine::feed_fallback_rows(const img::SicEncoded& image,
                                    const img::PpmHeader& hdr,
                                    const shard::Range& rows,
                                    img::RgbImage& dst, bool degrade) {
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe, "feed:ingest");
  const std::size_t row_bytes = static_cast<std::size_t>(hdr.width) * 3;
  const std::uint8_t* src = image.bytes.data() + hdr.pixel_offset;
  for (int y = rows.begin; y < rows.end; ++y) {
    std::memcpy(dst.row(y), src + static_cast<std::size_t>(y) * row_bytes,
                row_bytes);
  }
  // The same per-chunk touch cost the PPE decode path charges for these
  // rows (the destination pads are already zero: AlignedBuffer
  // value-initializes, matching the kernel's explicit pad memset).
  const auto chunks = static_cast<std::uint64_t>(
      (row_bytes * static_cast<std::size_t>(rows.count()) + 15) / 16);
  ppe.charge(sim::OpClass::kLoad, chunks);
  ppe.charge(sim::OpClass::kStore, chunks);
  ppe.charge(sim::OpClass::kIntAlu,
             static_cast<std::uint64_t>(rows.count()) * 2);
  feed_fallback_counter_->add(1);
  if (degrade) {
    feed_pending_degraded_.push_back("feed:ingest");
    fallback_counter_->add(1);
    if (ppe.trace_on()) {
      ppe.trace_track()->instant(trace::Category::kRuntime,
                                 "ppe_fallback:feed:ingest", ppe.now_ns(),
                                 "count", fallback_counter_->value());
    }
  }
}

AnalysisResult CellEngine::analyze(const img::SicEncoded& image) {
  sim::ScalarContext& ppe = machine_.ppe();
  if (probe_ != nullptr) rt_.start("analyze", ppe.now_ns());
  // cellbalance: content-cache front end. A hit skips decode, extraction
  // and detection entirely — digest + copy-out, bit-identical values.
  std::uint64_t cache_key = 0;
  bool cache_fill = false;
  if (cache_on()) {
    AnalysisResult hit;
    if (cache_try_serve(image, &hit, &cache_key)) {
      note_image_done();
      finish_request();
      return hit;
    }
    cache_fill = true;
  }
  img::RgbImage pixels = [&] {
    port::Profiler::Scope probe(profiler_, kPhasePreprocess);
    return ingest(image);
  }();
  QuiesceOnUnwind quiesce_on_unwind(*this);
  prepare_image(pixels);

  const bool per_feature = !fused_ && !balanced_;
  if (per_feature && scenario_ == Scenario::kSingleSPE) {
    // Scenario 1 (Figure 4b): each kernel runs alone, send-and-wait.
    for (auto& slot : slots_) {
      port::Profiler::Scope probe(profiler_, slot.phase);
      probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe, slot.name);
      const sim::SimTime sent = ppe.now_ns();
      slot.lanes[0].send(extract_opcode(slot), slot.msg.ea());
      settle(slot.lanes[0], slot.name,
             [&] { fallback_extract(slot, pixels); });
      rt_.add_spe_span(probe::Phase::kExtract, slot.name, sent,
                       ppe.now_ns());
    }
    port::Profiler::Scope probe(profiler_, kPhaseCd);
    detect();
  } else {
    // Per-feature kMultiSPE2 detects each slot as soon as its extraction
    // completes, inside the extraction phase.
    const bool detect_overlaps =
        per_feature && scenario_ == Scenario::kMultiSPE2;
    {
      port::Profiler::Scope probe(profiler_, kPhaseExtractPar);
      send_extract(/*honor_naive=*/true);
      complete_extract(pixels);
      if (detect_overlaps) detect();
    }
    if (!per_feature || scenario_ == Scenario::kSharded) {
      port::Profiler::Scope probe(profiler_, kPhaseShardReduce);
      reduce_partials();
    }
    if (!detect_overlaps) {
      port::Profiler::Scope probe(profiler_, kPhaseDetect);
      detect();
    }
  }

  AnalysisResult result = collect_result();
  if (cache_fill && result.degraded.empty()) {
    cache_store(cache_key, result);
  }
  note_image_done();
  finish_request();
  return result;
}

void CellEngine::quiesce() noexcept {
  for (auto& slot : slots_) {
    for (Lane& lane : slot.lanes) lane.quiesce();
  }
  for (Lane& lane : detect_lanes_) lane.quiesce();
}

void CellEngine::finish_request() {
  if (probe_ == nullptr || !rt_.active()) return;
  rt_.finish(machine_.ppe().now_ns());
  probe_->on_request(rt_);
}

int CellEngine::extract_opcode(const FeatureSlot& slot) const {
  bool has_naive = slot.phase != kPhaseTx;
  return static_cast<int>(use_naive_ && has_naive ? kernels::SPU_Run_Naive
                                                  : kernels::SPU_Run);
}

// ---- the per-image schedule ----
//
// Every extraction strategy is three steps over the engine's lanes —
// dispatch, completion (with a PPE fallback for a guarded lane that gives
// up), and the scenario's detection — with a partial merge in between for
// the sharded, fused and balanced strategies. analyze() wraps them in its
// per-phase profiler scopes; the pipelined batch loop decodes the next
// image between dispatch and completion.

void CellEngine::prepare_image(const img::RgbImage& pixels) {
  {
    probe::ProbeSpan span(prt(), probe::Phase::kPrepare, machine_.ppe(),
                          "fill_msgs");
    for (auto& slot : slots_) fill_image_msg(slot, pixels);
    if (fused_ || balanced_) {
      prepare_fused(pixels);
    } else if (scenario_ == Scenario::kSharded) {
      prepare_shards(pixels);
    }
  }
  // Feed fallbacks for this image were staged during its ingest() (in
  // the pipelined loop, one iteration ago).
  degraded_current_ = std::move(feed_pending_degraded_);
  feed_pending_degraded_.clear();
}

void CellEngine::send_extract(bool honor_naive) {
  sim::ScalarContext& ppe = machine_.ppe();
  const bool sharded = scenario_ == Scenario::kSharded;
  probe::ProbeSpan span(prt(), probe::Phase::kDispatch, ppe,
                        balanced_ ? "arm_lanes"
                        : fused_  ? "send_fused"
                        : sharded ? "send_shards"
                                  : "send_extract");
  extract_sent_ns_ = ppe.now_ns();
  if (balanced_) {
    // The doorbell wave: every lane is armed with its first task.
    bal_q_ = std::make_unique<balance::TaskQueue>(fused_rows_.size(),
                                                  fused_lanes_.size());
    bal_sent_.assign(fused_rows_.size(), 0);
    for (std::size_t k = 0; k < fused_lanes_.size(); ++k) balanced_issue(k);
  } else if (fused_) {
    for (std::size_t j = 0; j < fused_rows_.size(); ++j) {
      if (fused_rows_[j].empty()) continue;
      fused_lanes_[j]->send(static_cast<int>(kernels::SPU_Run_Fused),
                            fused_msgs_[j].ea());
    }
  } else if (sharded) {
    for (auto& slot : slots_) {
      for (std::size_t j = 0; j < slot.lanes.size(); ++j) {
        if (slot.shard_rows[j].empty()) continue;
        slot.lanes[j].send(static_cast<int>(kernels::SPU_Run),
                           slot.shard_msgs[j].ea());
      }
    }
  } else {
    for (int i = 0; i < 4; ++i) {
      sent_[i] = ppe.now_ns();
      slots_[i].lanes[0].send(
          honor_naive ? extract_opcode(slots_[i])
                      : static_cast<int>(kernels::SPU_Run),
          slots_[i].msg.ea());
    }
  }
}

void CellEngine::complete_extract(const img::RgbImage& pixels) {
  sim::ScalarContext& ppe = machine_.ppe();
  if (balanced_) {
    drain_balanced(pixels);
  } else if (fused_) {
    probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe, "fused_lanes");
    for (std::size_t j = 0; j < fused_rows_.size(); ++j) {
      if (fused_rows_[j].empty()) continue;
      const std::string tag = "fused[" + std::to_string(j) + "]";
      settle(*fused_lanes_[j], tag, [&] { fallback_fused(j, pixels); });
      rt_.add_spe_span(probe::Phase::kExtract, tag, extract_sent_ns_,
                       ppe.now_ns());
    }
  } else if (scenario_ == Scenario::kSharded) {
    // A shard whose guard gives up is recomputed on the PPE via the
    // shard mirrors; the surviving shards' SPE work is kept.
    probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe, "shards");
    for (int i = 0; i < 4; ++i) {
      FeatureSlot& slot = slots_[i];
      for (std::size_t j = 0; j < slot.lanes.size(); ++j) {
        if (slot.shard_rows[j].empty()) continue;
        const std::string tag =
            std::string(slot.name) + "[" + std::to_string(j) + "]";
        settle(slot.lanes[j], tag, [&] {
          probe::ProbeSpan f(prt(), probe::Phase::kFallback, ppe,
                             std::string("shard:") + slot.name);
          shard::ppe_partial(i, pixels, slot.shard_rows[j],
                             slot.shard_parts[j].data(), &ppe);
          note_degraded("shard", slot);
        });
        rt_.add_spe_span(probe::Phase::kExtract, tag, extract_sent_ns_,
                         ppe.now_ns());
      }
    }
  } else {
    probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe);
    for (int i = 0; i < 4; ++i) {
      FeatureSlot& slot = slots_[i];
      settle(slot.lanes[0], slot.name,
             [&] { fallback_extract(slot, pixels); });
      rt_.add_spe_span(probe::Phase::kExtract, slot.name, sent_[i],
                       ppe.now_ns());
      if (scenario_ == Scenario::kMultiSPE2) {
        detect_sent_[i] = ppe.now_ns();
        detect_lanes_[i].send(static_cast<int>(kernels::SPU_Run),
                              slot.detect_msg.ea());
      }
    }
  }
}

void CellEngine::reduce_partials() {
  sim::ScalarContext* ppe = &machine_.ppe();
  const int w = slots_[0].msg->width;
  const int h = slots_[0].msg->height;
  if (fused_ || balanced_) {
    probe::ProbeSpan span(prt(), probe::Phase::kReduce, *ppe,
                          "fuse_reduce");
    for (int i = 0; i < 4; ++i) {
      shard::reduce_fused(i, fused_rows_, fused_parts_, w, h,
                          slots_[i].out.data(), ppe);
    }
    fuse_images_counter_->add(1);
  } else if (scenario_ == Scenario::kSharded) {
    probe::ProbeSpan span(prt(), probe::Phase::kReduce, *ppe,
                          "shard_reduce");
    for (int i = 0; i < 4; ++i) {
      shard::reduce_shards(i, slots_[i].shard_rows, slots_[i].shard_parts,
                           w, h, slots_[i].out.data(), ppe);
    }
    shard_reduce_counter_->add(1);
  }
}

void CellEngine::detect() {
  sim::ScalarContext& ppe = machine_.ppe();
  if (scenario_ == Scenario::kSharded) {
    probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe, "blocks");
    for (auto& slot : slots_) sharded_detect(slot);
    return;
  }
  probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe);
  const auto spu_run = static_cast<int>(kernels::SPU_Run);
  const bool multi2 = scenario_ == Scenario::kMultiSPE2;
  if (multi2 && (fused_ || balanced_)) {
    // Per-feature kMultiSPE2 already sent these in complete_extract().
    for (int i = 0; i < 4; ++i) {
      detect_sent_[i] = ppe.now_ns();
      detect_lanes_[i].send(spu_run, slots_[i].detect_msg.ea());
    }
  }
  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    if (!multi2) {
      detect_sent_[i] = ppe.now_ns();
      detect_lane(i).send(spu_run, slot.detect_msg.ea());
    }
    const std::string tag = std::string("cd:") + slot.name;
    settle(detect_lane(i), tag, [&] { fallback_detect(slot); });
    rt_.add_spe_span(probe::Phase::kDetect, tag, detect_sent_[i],
                     ppe.now_ns());
  }
}

// ---- cellshard: the kSharded per-image schedule ----
//
// All shards of all four kernels launch in parallel (the plan sizes the
// counts so they finish together); the PPE then merges raw partials into
// the exact unsharded outputs and fans each slot's detection out over
// the detection lanes as contiguous model blocks. A block whose guard
// gives up is scored on the PPE via the shard mirrors.

void CellEngine::sharded_detect(FeatureSlot& slot) {
  sim::ScalarContext& ppe = machine_.ppe();
  const auto num_models = static_cast<int>(slot.set->models.size());
  const int d = plan_.detect_spes;
  std::vector<shard::Range> blocks = shard::split_rows(num_models, d);
  ppe.charge(sim::OpClass::kStore, 6 * static_cast<std::uint64_t>(d));
  const sim::SimTime blocks_sent = ppe.now_ns();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].empty()) continue;
    kernels::DetectMsg& m = *cd_block_msgs_[b];
    m = *slot.detect_msg;
    m.model_begin = blocks[b].begin;
    m.num_models = blocks[b].count();
    m.scores_ea = reinterpret_cast<std::uint64_t>(cd_block_scores_[b].data());
    detect_lanes_[b].send(static_cast<int>(kernels::SPU_Run),
                          cd_block_msgs_[b].ea());
  }
  std::vector<const double*> parts;
  std::vector<int> counts;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const shard::Range& block = blocks[b];
    if (block.empty()) continue;
    const std::string tag =
        "cd[" + std::to_string(b) + "]:" + std::string(slot.name);
    settle(detect_lanes_[b], tag, [&] {
      probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe,
                            std::string("detect:") + slot.name);
      shard::ppe_detect_block(slot.out.data(), slot.dim, *slot.set, block,
                              cd_block_scores_[b].data(), &ppe);
      note_degraded("detect", slot);
    });
    rt_.add_spe_span(probe::Phase::kDetect, tag, blocks_sent, ppe.now_ns());
    parts.push_back(cd_block_scores_[b].data());
    counts.push_back(block.count());
  }
  shard::concat_scores(parts.data(), counts.data(),
                       static_cast<int>(parts.size()), slot.scores.data(),
                       &ppe);
}

// ---- cellfuse: the fused per-image schedule ----
//
// One single-pass kernel invocation per lane replaces the four
// per-feature invocations: each lane streams its tile-aligned row range
// once — one HSV quantization, one gray conversion — and emits all four
// raw-partial layouts in one blob (kernels/messages.h). The PPE merges
// the blobs' sections with the same cellshard reducers the sharded
// scenario uses, so fused results are bit-exact with the per-feature
// kernels; detection then runs the scenario's normal schedule.

void CellEngine::prepare_fused(const img::RgbImage& pixels) {
  const int h = pixels.height();
  // Same precondition as the TX kernel: every wavelet level must split
  // (a fused lane always computes the texture alongside the row-granular
  // features).
  if (pixels.width() < (1 << features::kTextureLevels) ||
      h < (1 << features::kTextureLevels)) {
    throw cellport::ConfigError(
        "image too small for the 4-level wavelet texture");
  }
  const auto lanes = static_cast<int>(fused_lanes_.size());
  fused_rows_ = balanced_ ? balance::split_tasks(h, lanes)
                          : shard::split_fused(h, lanes);
  const std::size_t n = fused_rows_.size();
  if (fused_msgs_.size() < n) {
    fused_msgs_ = std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
  }
  if (fused_parts_.size() < n) fused_parts_.resize(n);
  std::uint64_t stores = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const shard::Range& r = fused_rows_[j];
    if (r.empty()) continue;
    const std::size_t bytes =
        kernels::fused_partial_bytes(pixels.width(), h, r.begin, r.end);
    if (fused_parts_[j].bytes() < bytes) {
      fused_parts_[j] = cellport::AlignedBuffer<std::uint8_t>(bytes);
    }
    kernels::ImageMsg& m = *fused_msgs_[j];
    m = *slots_[0].msg;
    m.row_begin = r.begin;
    m.row_end = r.end;
    m.out_ea = reinterpret_cast<std::uint64_t>(fused_parts_[j].data());
    stores += 4;
  }
  machine_.ppe().charge(sim::OpClass::kStore, stores);
}

void CellEngine::fallback_fused(std::size_t j, const img::RgbImage& pixels) {
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, machine_.ppe(),
                        "fuse[" + std::to_string(j) + "]");
  shard::ppe_partial_fused(pixels, fused_rows_[j], fused_parts_[j].data(),
                           &machine_.ppe());
  for (auto& slot : slots_) note_degraded("fuse", slot);
}

// ---- cellbalance: steal-driven fused dispatch + the content cache ----
//
// The balanced schedule is the fused schedule with MORE, smaller tasks
// than lanes: the fused_* members hold one entry per TASK instead of one
// per lane, so the reducers and the PPE mirror work verbatim — reduction
// still walks fused_rows_ in ascending row order, which is exactly the
// order a static plan reduces, keeping stolen-work results bit-identical.

void CellEngine::set_balanced(bool on) {
  balanced_ = on;
  if (on && steal_tasks_counter_ == nullptr) {
    auto& m = machine_.metrics();
    steal_tasks_counter_ = &m.counter("steal.tasks");
    steal_arms_counter_ = &m.counter("steal.arms");
    steal_steals_counter_ = &m.counter("steal.steals");
  }
}

void CellEngine::balanced_issue(std::size_t k) {
  const std::size_t t = bal_q_->issue(k);
  if (t == balance::TaskQueue::kNone) return;
  bal_sent_[t] = machine_.ppe().now_ns();
  fused_lanes_[k]->send(static_cast<int>(kernels::SPU_Run_Fused),
                        fused_msgs_[t].ea());
}

void CellEngine::drain_balanced(const img::RgbImage& pixels) {
  sim::ScalarContext& ppe = machine_.ppe();
  balance::TaskQueue& q = *bal_q_;
  probe::ProbeSpan w(prt(), probe::Phase::kExtract, ppe, "steal_lanes");
  std::vector<sim::SimTime> peeks(fused_lanes_.size(), sim::kNeverNs);
  while (!q.done()) {
    {
      // Peek every in-flight completion timestamp without consuming it
      // (one MMIO charge per busy lane, in lane order — deterministic)
      // and pick the earliest finisher. A hung or quarantined lane peeks
      // sim::kNeverNs and never wins while live lanes are in flight, so
      // the remaining descriptors flow around it.
      probe::ProbeSpan p(prt(), probe::Phase::kSteal, ppe, "pick");
      for (std::size_t k = 0; k < fused_lanes_.size(); ++k) {
        peeks[k] = q.busy(k) ? fused_lanes_[k]->peek_ns() : sim::kNeverNs;
      }
    }
    const std::size_t k = balance::pick_earliest(peeks, q);
    const std::size_t t = q.task_of(k);
    const std::string tag = "task[" + std::to_string(t) + "]";
    settle(*fused_lanes_[k], tag, [&] { fallback_fused(t, pixels); });
    rt_.add_spe_span(probe::Phase::kExtract, tag, bal_sent_[t],
                     ppe.now_ns());
    q.complete(k);
    balanced_issue(k);
  }
  steal_tasks_counter_->add(q.tasks());
  steal_arms_counter_->add(q.arms());
  steal_steals_counter_->add(q.steals());
  bal_q_.reset();
}

namespace {

/// Bytes an AnalysisResult occupies in the cache arena (the payload
/// vectors; the fixed struct overhead is noise next to them).
std::size_t result_bytes(const AnalysisResult& r) {
  std::size_t n = 0;
  for (const features::FeatureVector* fv :
       {&r.color_histogram, &r.color_correlogram, &r.texture,
        &r.edge_histogram}) {
    n += fv->values.size() * sizeof(float) + fv->name.size();
  }
  for (const DetectionScores* ds :
       {&r.ch_detect, &r.cc_detect, &r.tx_detect, &r.eh_detect}) {
    n += ds->values.size() * sizeof(double);
  }
  return n;
}

/// Result elements a cache hit copies out (charged like collect()).
std::uint64_t result_elems(const AnalysisResult& r) {
  return static_cast<std::uint64_t>(
      r.color_histogram.values.size() + r.color_correlogram.values.size() +
      r.texture.values.size() + r.edge_histogram.values.size() +
      r.ch_detect.values.size() + r.cc_detect.values.size() +
      r.tx_detect.values.size() + r.eh_detect.values.size());
}

}  // namespace

void CellEngine::set_cache(std::size_t byte_budget) {
  if (byte_budget == 0) {
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<balance::ContentCache<AnalysisResult>>(
      byte_budget);
  cache_evictions_seen_ = 0;
  auto& m = machine_.metrics();
  if (cache_hits_counter_ == nullptr) {
    cache_hits_counter_ = &m.counter("cache.hits");
    cache_miss_counter_ = &m.counter("cache.misses");
    cache_evict_counter_ = &m.counter("cache.evictions");
  }
  m.gauge("cache.bytes").set(0);
  m.gauge("cache.entries").set(0);
}

std::uint64_t CellEngine::cache_digest(const img::SicEncoded& image) {
  // The FNV-1a pass is byte-serial on the PPE, over the ENCODED carrier
  // (no decode needed to recognize a duplicate).
  machine_.ppe().charge(sim::OpClass::kIntAlu, image.bytes.size());
  return balance::fnv1a64(image.bytes.data(), image.bytes.size());
}

bool CellEngine::cache_try_serve(const img::SicEncoded& image,
                                 AnalysisResult* out, std::uint64_t* key) {
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kCache, ppe, "cache_lookup");
  *key = cache_digest(image);
  const AnalysisResult* hit = cache_->find(*key);
  if (hit == nullptr) {
    cache_miss_counter_->add(1);
    return false;
  }
  cache_hits_counter_->add(1);
  // Copy-out mirrors collect(): one load + one store per result element.
  const std::uint64_t elems = result_elems(*hit);
  ppe.charge(sim::OpClass::kLoad, elems);
  ppe.charge(sim::OpClass::kStore, elems);
  *out = *hit;
  return true;
}

void CellEngine::cache_store(std::uint64_t key,
                             const AnalysisResult& result) {
  const std::size_t cost = result_bytes(result);
  // Write-back into the cache arena: one store per 16-byte chunk.
  machine_.ppe().charge(sim::OpClass::kStore,
                        static_cast<std::uint64_t>((cost + 15) / 16));
  cache_->insert(key, result, cost);
  const std::uint64_t ev = cache_->stats().evictions;
  if (ev > cache_evictions_seen_) {
    cache_evict_counter_->add(ev - cache_evictions_seen_);
    cache_evictions_seen_ = ev;
  }
  auto& m = machine_.metrics();
  m.gauge("cache.bytes").set(static_cast<double>(cache_->bytes()));
  m.gauge("cache.entries").set(static_cast<double>(cache_->entries()));
}

void CellEngine::fallback_extract(FeatureSlot& slot,
                                  const img::RgbImage& pixels) {
  // Recompute on the PPE scalar path and land the values in the slot's
  // output buffer, where the (possibly still SPE-hosted) detection and
  // collect() expect them.
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, machine_.ppe(),
                        std::string("extract:") + slot.name);
  features::FeatureVector fv = slot.ref_extract(pixels, &machine_.ppe());
  machine_.ppe().charge(sim::OpClass::kStore,
                        static_cast<std::uint64_t>(slot.dim));
  std::memcpy(slot.out.data(), fv.values.data(),
              static_cast<std::size_t>(slot.dim) * sizeof(float));
  note_degraded("extract", slot);
}

void CellEngine::fallback_detect(FeatureSlot& slot) {
  // Score against the models on the PPE, reading whatever feature values
  // are in the slot buffer (SPE-extracted or themselves a fallback).
  probe::ProbeSpan span(prt(), probe::Phase::kFallback, machine_.ppe(),
                        std::string("detect:") + slot.name);
  features::FeatureVector fv;
  fv.name = slot.name;
  fv.values.assign(slot.out.data(), slot.out.data() + slot.dim);
  DetectionScores scores =
      reference_detect(fv, *slot.set, &machine_.ppe());
  machine_.ppe().charge(sim::OpClass::kStore,
                        static_cast<std::uint64_t>(scores.values.size()));
  std::memcpy(slot.scores.data(), scores.values.data(),
              scores.values.size() * sizeof(double));
  note_degraded("detect", slot);
}

void CellEngine::note_degraded(const char* stage, const FeatureSlot& slot) {
  degraded_current_.push_back(std::string(stage) + ":" + slot.name);
  fallback_counter_->add(1);
  sim::ScalarContext& ppe = machine_.ppe();
  if (ppe.trace_on()) {
    ppe.trace_track()->instant(trace::Category::kRuntime,
                               "ppe_fallback:" + degraded_current_.back(),
                               ppe.now_ns(), "count",
                               fallback_counter_->value());
  }
}

void CellEngine::note_image_done() {
  images_counter_->add(1);
  sim::ScalarContext& ppe = machine_.ppe();
  if (ppe.trace_on()) {
    ppe.trace_track()->instant(trace::Category::kRuntime, "image_done",
                               ppe.now_ns(), "count",
                               images_counter_->value());
  }
}

std::vector<AnalysisResult> CellEngine::analyze_batch_pipelined(
    const std::vector<img::SicEncoded>& images) {
  if (scenario_ == Scenario::kSingleSPE) {
    throw cellport::ConfigError(
        "pipelined batches need a parallel scenario (kMultiSPE, "
        "kMultiSPE2, or kSharded)");
  }
  if (!cache_on()) {
    std::vector<const img::SicEncoded*> ptrs;
    ptrs.reserve(images.size());
    for (const auto& image : images) ptrs.push_back(&image);
    return pipelined_cold(ptrs);
  }
  // cellbalance: serve cache hits up front (each one its own request),
  // run the pipelined loop over the misses only, then reassemble the
  // results in input order — values bit-identical to an uncached batch.
  sim::ScalarContext& ppe = machine_.ppe();
  std::vector<AnalysisResult> merged(images.size());
  std::vector<const img::SicEncoded*> cold;
  std::vector<std::size_t> cold_idx;
  std::vector<std::uint64_t> cold_keys;
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (probe_ != nullptr) rt_.start("pipelined", ppe.now_ns());
    std::uint64_t key = 0;
    if (cache_try_serve(images[i], &merged[i], &key)) {
      note_image_done();
      finish_request();
      continue;
    }
    // The miss's lookup time belongs to its request, which the cold
    // loop below serves; roll this trace into that one.
    if (probe_ != nullptr && rt_.active()) rt_.finish(ppe.now_ns());
    cold.push_back(&images[i]);
    cold_idx.push_back(i);
    cold_keys.push_back(key);
  }
  std::vector<AnalysisResult> cold_results = pipelined_cold(cold);
  for (std::size_t c = 0; c < cold_results.size(); ++c) {
    if (cold_results[c].degraded.empty()) {
      cache_store(cold_keys[c], cold_results[c]);
    }
    merged[cold_idx[c]] = std::move(cold_results[c]);
  }
  return merged;
}

std::vector<AnalysisResult> CellEngine::pipelined_cold(
    const std::vector<const img::SicEncoded*>& images) {
  std::vector<AnalysisResult> results;
  if (images.empty()) return results;
  results.reserve(images.size());

  port::Profiler::Scope probe(profiler_, kPhasePipelined);
  sim::ScalarContext& ppe = machine_.ppe();

  // Two pixel buffers alternate: the SPEs read `current` while the PPE
  // decodes into the other slot. Probing treats each loop iteration as
  // one request; the overlapped decode of image i+1 lands in request
  // i's kDecode phase — that is where the PPE's time really went.
  if (probe_ != nullptr) rt_.start("pipelined", ppe.now_ns());
  img::RgbImage current = ingest(*images[0]);
  QuiesceOnUnwind quiesce_on_unwind(*this);
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (probe_ != nullptr && !rt_.active()) {
      rt_.start("pipelined", ppe.now_ns());
    }
    prepare_image(current);
    send_extract(/*honor_naive=*/false);
    // PPE work overlaps the SPE kernels: decode the next image now.
    img::RgbImage next;
    if (i + 1 < images.size()) next = ingest(*images[i + 1]);
    complete_extract(current);
    reduce_partials();
    detect();
    results.push_back(collect_result());
    note_image_done();
    finish_request();
    if (i + 1 < images.size()) current = std::move(next);
  }
  return results;
}

}  // namespace cellport::marvel
