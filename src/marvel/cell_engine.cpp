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
#include "marvel/task_graph.h"
#include "shard/fallback.h"
#include "shard/reducer.h"
#include "support/error.h"

namespace cellport::marvel {

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
  const bool sharded = scenario_ == Scenario::kSharded;
  if (sharded) {
    shard_plan_ = shard::plan_shards(machine_.num_spes());
    auto& metrics = machine_.metrics();
    const int* shards = shard_plan_.extract_shards;
    metrics.gauge("shard.plan.ch").set(shards[shard::kSlotCh]);
    metrics.gauge("shard.plan.cc").set(shards[shard::kSlotCc]);
    metrics.gauge("shard.plan.tx").set(shards[shard::kSlotTx]);
    metrics.gauge("shard.plan.eh").set(shards[shard::kSlotEh]);
    metrics.gauge("shard.plan.cd").set(shard_plan_.detect_spes);
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
  const int detect_n = sharded ? shard_plan_.detect_spes
                       : scenario_ == Scenario::kMultiSPE2 ? 4
                                                           : 1;
  const int pinned = sharded ? shard_plan_.spes_used() : 4 + detect_n;
  std::vector<int> spares;
  for (int s = pinned; s < machine_.num_spes(); ++s) spares.push_back(s);
  if (guard_.enabled) {
    health_ = std::make_unique<guard::SpeHealth>(machine_, guard_.retry);
    fallback_counter_ = &machine_.metrics().counter("guard.ppe_fallbacks");
  }
  lanes_.reserve(static_cast<std::size_t>(pinned));
  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    slot.first_lane = static_cast<int>(lanes_.size());
    slot.lanes = sharded ? shard_plan_.extract_shards[i] : 1;
    for (int j = 0; j < slot.lanes; ++j) {
      lanes_.emplace_back(config[i].module(), slot.first_lane + j,
                          health_.get(), spares);
    }
  }
  detect_begin_ = static_cast<int>(lanes_.size());
  for (int b = 0; b < detect_n; ++b) {
    lanes_.emplace_back(kernels::cd_module(), detect_begin_ + b,
                        health_.get(), spares);
  }
  // cellfuse lanes ride the extraction SPEs slot-major; past the cap the
  // marginal lane costs more in per-lane overhead than it saves in span
  // (shard::plan_fused).
  const std::size_t fused_cap =
      sharded ? static_cast<std::size_t>(fused_plan_.lanes)
      : scenario_ == Scenario::kSingleSPE ? 1
                                          : 4;
  fused_lanes_ =
      std::min(fused_cap, static_cast<std::size_t>(detect_begin_));

  for (int i = 0; i < 4; ++i) {
    FeatureSlot& slot = slots_[i];
    slot.phase = config[i].phase;
    slot.dim = config[i].dim;
    slot.name = config[i].name;
    slot.ref_extract = config[i].ref;
    slot.set = config[i].set;
    slot.descs = make_detect_descs(*config[i].set);
  }
  init_plan(plan_, 0);
}

AnalysisResult CellEngine::collect(ImagePlan& p) {
  // Copy results from the output buffers back into the class data
  // (Section 3.3, last step). Charged as the loads/stores it is.
  AnalysisResult result;
  features::FeatureVector* fvs[4] = {
      &result.color_histogram, &result.color_correlogram, &result.texture,
      &result.edge_histogram};
  DetectionScores* ds[4] = {&result.ch_detect, &result.cc_detect,
                            &result.tx_detect, &result.eh_detect};
  sim::ScalarContext& ppe = machine_.ppe();
  for (int s = 0; s < 4; ++s) {
    const FeatureSlot& slot = slots_[s];
    const ImagePlan::Slot& ps = p.slots[s];
    const std::uint64_t n =
        static_cast<std::uint64_t>(slot.dim) + ps.scores.size();
    ppe.charge(sim::OpClass::kLoad, n);
    ppe.charge(sim::OpClass::kStore, n);
    fvs[s]->name = slot.name;
    fvs[s]->values.assign(ps.out.data(), ps.out.data() + slot.dim);
    ds[s]->values.assign(ps.scores.data(), ps.scores.data() + ps.scored);
  }
  result.degraded = std::move(p.degraded);
  p.degraded.clear();
  return result;
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
  {
    port::Profiler::Scope probe(profiler_, kPhasePreprocess);
    build_ingest(image, plan_);
    run_ingest(plan_);
  }
  QuiesceOnUnwind quiesce_on_unwind(*this);
  {
    probe::ProbeSpan span(prt(), probe::Phase::kPrepare, ppe, "fill_msgs");
    build_plan(plan_);
    if (plan_.msgs_filled > 0) {
      ppe.charge(sim::OpClass::kStore, 4 * plan_.msgs_filled);
    }
  }

  const bool per_feature = plan_.partials == TaskKind::kFeature;
  if (per_feature && scenario_ == Scenario::kSingleSPE) {
    // Scenario 1 (Figure 4b): each kernel runs alone, send-and-wait.
    for (Task& t : plan_.extract.tasks) {
      const FeatureSlot& slot = slots_[t.slot];
      port::Profiler::Scope probe(profiler_, slot.phase);
      probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe, slot.name);
      send(t, 0);
      finish(plan_, t, lanes_[t.lane], -1);
    }
    port::Profiler::Scope probe(profiler_, kPhaseCd);
    detect(plan_, false);
  } else {
    // Per-feature kMultiSPE2 detects each slot as soon as its extraction
    // completes, inside the extraction phase.
    const bool detect_overlaps =
        per_feature && scenario_ == Scenario::kMultiSPE2;
    {
      port::Profiler::Scope probe(profiler_, kPhaseExtractPar);
      extract(plan_, detect_overlaps);
      if (detect_overlaps) detect(plan_, true);
    }
    if (!per_feature) {
      port::Profiler::Scope probe(profiler_, kPhaseShardReduce);
      probe::ProbeSpan span(prt(), probe::Phase::kReduce, ppe,
                            plan_.partials == TaskKind::kFused
                                ? "fuse_reduce"
                                : "shard_reduce");
      reduce(plan_);
    }
    if (!detect_overlaps) {
      port::Profiler::Scope probe(profiler_, kPhaseDetect);
      detect(plan_, false);
    }
  }

  AnalysisResult result = [&] {
    probe::ProbeSpan span(prt(), probe::Phase::kOutput, ppe, "collect");
    return collect(plan_);
  }();
  if (cache_fill && result.degraded.empty()) {
    cache_store(cache_key, result);
  }
  note_image_done();
  finish_request();
  return result;
}

void CellEngine::quiesce() noexcept {
  for (Lane& lane : lanes_) lane.quiesce();
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

// ---- the per-call executor ----
//
// analyze() runs its plan call by call: send every statically bound
// task, settle each one (a guarded lane that gives up runs the task's
// PPE fallback), merge the partials, then detect. A balanced plan's tasks
// go through the steal loop instead, which StreamEngine shares.

void CellEngine::send(Task& t, sim::SimTime wave_ns) {
  const bool own = t.kind == TaskKind::kFeature || t.kind == TaskKind::kDetect;
  t.sent_ns = own ? machine_.ppe().now_ns() : wave_ns;
  lanes_[static_cast<std::size_t>(t.lane)].send(t.opcode, t.msg_ea);
}

Lane::Result CellEngine::finish(ImagePlan& p, Task& t, Lane& lane,
                                int image) {
  sim::ScalarContext& ppe = machine_.ppe();
  const std::string tag = task_tag(t, image);
  const bool feed = t.kind == TaskKind::kFeed;
  const sim::SimTime t0 = ppe.now_ns();
  Lane::Result r;
  try {
    r = lane.finish();
  } catch (const cellport::Error&) {
    if (!feed) throw;  // a plain feed lane's rows fall to the PPE instead
  }
  if (r.attempts > 1) {
    rt_.add_closed(probe::Phase::kGuardRetry, tag, t0, ppe.now_ns());
  }
  if (!r.ok && !feed) fallback(p, t, image);
  rt_.add_spe_span(feed                        ? probe::Phase::kFeedDma
                   : t.kind < TaskKind::kDetect ? probe::Phase::kExtract
                                                : probe::Phase::kDetect,
                   tag, t.sent_ns, ppe.now_ns());
  if (!r.ok && feed) fallback(p, t, image);
  return r;
}

void CellEngine::run_ingest(ImagePlan& p) {
  if (p.ingest.tasks.empty()) return;
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kFeedDma, ppe, "feed_dma");
  const sim::SimTime wave = ppe.now_ns();
  for (Task& t : p.ingest.tasks) {
    ppe.charge(sim::OpClass::kStore, 10);  // the FeedMsg fill
    send(t, wave);
  }
  for (Task& t : p.ingest.tasks) {
    if (finish(p, t, lanes_[static_cast<std::size_t>(t.lane)], -1).ok) {
      feed_rows_counter_->add(static_cast<std::uint64_t>(t.range.count()));
    }
  }
  feed_images_counter_->add(1);
}

void CellEngine::extract(ImagePlan& p, bool overlap_detect) {
  sim::ScalarContext& ppe = machine_.ppe();
  if (p.stolen) {
    StealPool pool;
    {
      probe::ProbeSpan span(prt(), probe::Phase::kDispatch, ppe,
                            "arm_lanes");
      for (Task& t : p.extract.tasks) pool.entries.push_back({&p, &t, -1});
      steal_arm(pool);
    }
    probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe, "steal_lanes");
    steal_drain(pool);
    return;
  }
  // Span labels by partials kind: kFeature, kShard, kFused.
  static constexpr const char* kSend[] = {"send_extract", "send_shards",
                                          "send_fused"};
  static constexpr const char* kWait[] = {"", "shards", "fused_lanes"};
  const auto kind = static_cast<std::size_t>(p.partials);
  {
    probe::ProbeSpan span(prt(), probe::Phase::kDispatch, ppe, kSend[kind]);
    const sim::SimTime wave = ppe.now_ns();
    for (Task& t : p.extract.tasks) send(t, wave);
  }
  probe::ProbeSpan span(prt(), probe::Phase::kExtract, ppe, kWait[kind]);
  for (std::size_t i = 0; i < p.extract.tasks.size(); ++i) {
    Task& t = p.extract.tasks[i];
    finish(p, t, lanes_[static_cast<std::size_t>(t.lane)], -1);
    if (overlap_detect) send(p.detect.tasks[i], 0);
  }
}

void CellEngine::detect(ImagePlan& p, bool sent) {
  sim::ScalarContext& ppe = machine_.ppe();
  std::vector<Task>& tasks = p.detect.tasks;
  const bool blocks = tasks.front().kind == TaskKind::kBlock;
  probe::ProbeSpan span(prt(), probe::Phase::kDetect, ppe,
                        blocks ? "blocks" : "");
  // Waves of calls on distinct lanes: the shared CD SPE takes one call
  // at a time, kMultiSPE2's four detectors one wave, and each slot's
  // model blocks one wave (their messages cost 6 stores per block lane).
  std::size_t end = 0;
  for (std::size_t i = 0; i < tasks.size(); i = end) {
    end = i + 1;
    while (end < tasks.size() &&
           std::none_of(tasks.begin() + static_cast<std::ptrdiff_t>(i),
                        tasks.begin() + static_cast<std::ptrdiff_t>(end),
                        [&](const Task& t) {
                          return t.lane == tasks[end].lane;
                        })) {
      ++end;
    }
    if (!sent) {
      if (blocks) {
        ppe.charge(sim::OpClass::kStore,
                   6 * static_cast<std::uint64_t>(detect_lanes()));
      }
      const sim::SimTime wave = ppe.now_ns();
      for (std::size_t k = i; k < end; ++k) send(tasks[k], wave);
    }
    for (std::size_t k = i; k < end; ++k) {
      finish(p, tasks[k], lanes_[static_cast<std::size_t>(tasks[k].lane)],
             -1);
    }
    if (blocks) concat_blocks(p, tasks[i].slot);
  }
}

void CellEngine::reduce(ImagePlan& p) {
  // The cellshard fixed-order reducers, so a sharded, fused or balanced
  // image is bit-exact with the per-feature kernels.
  sim::ScalarContext* ppe = &machine_.ppe();
  const int w = p.pixels.width();
  const int h = p.pixels.height();
  const bool fused = p.partials == TaskKind::kFused;
  for (int s = 0; s < 4; ++s) {
    float* out = p.slots[s].out.data();
    if (fused) {
      shard::reduce_fused(s, p.slots[0].rows, p.slots[0].parts, w, h, out,
                          ppe);
    } else {
      shard::reduce_shards(s, p.slots[s].rows, p.slots[s].parts, w, h, out,
                           ppe);
    }
  }
  (fused ? fuse_images_counter_ : shard_reduce_counter_)->add(1);
}

void CellEngine::concat_blocks(ImagePlan& p, int s) {
  ImagePlan::Slot& ps = p.slots[s];
  std::vector<const double*> parts;
  std::vector<int> counts;
  for (std::size_t b = 0; b < ps.blocks.size(); ++b) {
    if (ps.blocks[b].empty()) continue;
    parts.push_back(ps.block_scores[b].data());
    counts.push_back(ps.blocks[b].count());
  }
  shard::concat_scores(parts.data(), counts.data(),
                       static_cast<int>(parts.size()), ps.scores.data(),
                       &machine_.ppe());
}

std::string CellEngine::task_tag(const Task& t, int image) const {
  const std::string name = slots_[t.slot].name;
  const std::string j = std::to_string(t.index);
  switch (t.kind) {
    case TaskKind::kFeature:
      return name;
    case TaskKind::kShard:
      return name + "[" + j + "]";
    case TaskKind::kFused:
      if (t.lane >= 0) return "fused[" + j + "]";
      return image < 0 ? "task[" + j + "]"
                       : "task[" + std::to_string(image) + "." + j + "]";
    case TaskKind::kDetect:
      return "cd:" + name;
    case TaskKind::kBlock:
      return "cd[" + j + "]:" + name;
    case TaskKind::kFeed:
      return "feed[" + j + "]";
  }
  return name;
}

void CellEngine::fallback(ImagePlan& p, const Task& t, int image) {
  sim::ScalarContext& ppe = machine_.ppe();
  const FeatureSlot& slot = slots_[t.slot];
  ImagePlan::Slot& ps = p.slots[t.slot];
  const std::string name = slot.name;
  switch (t.kind) {
    case TaskKind::kFeature: {
      // Recompute on the PPE scalar path and land the values in the
      // slot's output buffer, where the (possibly still SPE-hosted)
      // detection and collect() expect them.
      probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe,
                            "extract:" + name);
      features::FeatureVector fv = slot.ref_extract(p.pixels, &ppe);
      ppe.charge(sim::OpClass::kStore, static_cast<std::uint64_t>(slot.dim));
      std::memcpy(ps.out.data(), fv.values.data(),
                  static_cast<std::size_t>(slot.dim) * sizeof(float));
      note_degraded("extract:" + name, p);
      return;
    }
    case TaskKind::kShard: {
      // The surviving shards' SPE work is kept; only this range reruns.
      probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe,
                            "shard:" + name);
      shard::ppe_partial(t.slot, p.pixels, t.range, t.out, &ppe);
      note_degraded("shard:" + name, p);
      return;
    }
    case TaskKind::kFused: {
      // All four sections of this range's blob; a stream window names a
      // stolen task after its image.
      const std::string j = std::to_string(t.index);
      probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe,
                            t.lane < 0 && image >= 0 ? "fuse[task" + j + "]"
                                                     : "fuse[" + j + "]");
      shard::ppe_partial_fused(p.pixels, t.range,
                               static_cast<std::uint8_t*>(t.out), &ppe);
      for (const FeatureSlot& f : slots_) {
        note_degraded(std::string("fuse:") + f.name, p);
      }
      return;
    }
    case TaskKind::kDetect: {
      // Score against the models on the PPE, reading whatever feature
      // values are in the slot buffer (SPE-extracted or themselves a
      // fallback).
      probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe,
                            "detect:" + name);
      features::FeatureVector fv;
      fv.name = slot.name;
      fv.values.assign(ps.out.data(), ps.out.data() + slot.dim);
      DetectionScores scores = reference_detect(fv, *slot.set, &ppe);
      ppe.charge(sim::OpClass::kStore,
                 static_cast<std::uint64_t>(scores.values.size()));
      // Under a serve concept clamp only the scored prefix lands in the
      // buffer; the reference charge stays the full set (the PPE
      // fallback has no short-batch kernel to lean on).
      const auto copy = std::min(scores.values.size(),
                                 static_cast<std::size_t>(ps.scored));
      std::memcpy(ps.scores.data(), scores.values.data(),
                  copy * sizeof(double));
      note_degraded("detect:" + name, p);
      return;
    }
    case TaskKind::kBlock: {
      probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe,
                            "detect:" + name);
      shard::ppe_detect_block(ps.out.data(), slot.dim, *slot.set, t.range,
                              static_cast<double*>(t.out), &ppe);
      note_degraded("detect:" + name, p);
      return;
    }
    case TaskKind::kFeed: {
      // The bytes the kernel would unpack, charged per 16-byte chunk like
      // the PPE decode of these rows (the destination pads are already
      // zero: AlignedBuffer value-initializes, matching the kernel's
      // explicit pad memset). Only a guarded lane's rows count as
      // degraded.
      probe::ProbeSpan span(prt(), probe::Phase::kFallback, ppe,
                            "feed:ingest");
      const auto& m = *reinterpret_cast<const kernels::FeedMsg*>(t.msg_ea);
      const auto* src = reinterpret_cast<const std::uint8_t*>(m.src_ea);
      const std::size_t row_bytes = static_cast<std::size_t>(m.width) * 3;
      for (int y = t.range.begin; y < t.range.end; ++y) {
        std::memcpy(p.pixels.row(y),
                    src + static_cast<std::size_t>(y) * row_bytes, row_bytes);
      }
      const auto chunks = static_cast<std::uint64_t>(
          (row_bytes * static_cast<std::size_t>(t.range.count()) + 15) / 16);
      ppe.charge(sim::OpClass::kLoad, chunks);
      ppe.charge(sim::OpClass::kStore, chunks);
      ppe.charge(sim::OpClass::kIntAlu,
                 static_cast<std::uint64_t>(t.range.count()) * 2);
      feed_fallback_counter_->add(1);
      if (lanes_[static_cast<std::size_t>(t.lane)].guarded()) {
        note_degraded("feed:ingest", p);
      }
      return;
    }
  }
}

void CellEngine::note_degraded(std::string what, ImagePlan& p) {
  p.degraded.push_back(std::move(what));
  fallback_counter_->add(1);
  sim::ScalarContext& ppe = machine_.ppe();
  if (ppe.trace_on()) {
    ppe.trace_track()->instant(trace::Category::kRuntime,
                               "ppe_fallback:" + p.degraded.back(),
                               ppe.now_ns(), "count",
                               fallback_counter_->value());
  }
}

// ---- cellbalance: steal-driven fused dispatch + the content cache ----
//
// A balanced plan is a fused plan with MORE, smaller tasks than lanes,
// left unbound: every lane is armed with one, and each lane that finishes
// steals the next. Reduction still walks the plan's ranges in ascending
// row order, which is exactly the order a static plan reduces, keeping
// stolen-work results bit-identical.

void CellEngine::set_balanced(bool on) {
  balanced_ = on;
  if (on && steal_tasks_counter_ == nullptr) {
    auto& m = machine_.metrics();
    steal_tasks_counter_ = &m.counter("steal.tasks");
    steal_arms_counter_ = &m.counter("steal.arms");
    steal_steals_counter_ = &m.counter("steal.steals");
  }
}

void CellEngine::steal_issue(StealPool& pool, std::size_t k) {
  const std::size_t i = pool.queue->issue(k);
  if (i == balance::TaskQueue::kNone) return;
  Task& t = *pool.entries[i].task;
  t.sent_ns = machine_.ppe().now_ns();
  lanes_[k].send(t.opcode, t.msg_ea);
}

void CellEngine::steal_arm(StealPool& pool) {
  pool.queue.emplace(pool.entries.size(), fused_lanes_);
  for (std::size_t k = 0; k < fused_lanes_; ++k) steal_issue(pool, k);
}

std::size_t CellEngine::steal_drain(StealPool& pool) {
  sim::ScalarContext& ppe = machine_.ppe();
  balance::TaskQueue& q = *pool.queue;
  std::vector<sim::SimTime> peeks(fused_lanes_, sim::kNeverNs);
  std::size_t retries = 0;
  while (!q.done()) {
    {
      // Peek every in-flight completion timestamp without consuming it
      // (one MMIO charge per busy lane, in lane order — deterministic)
      // and pick the earliest finisher. A hung or quarantined lane peeks
      // sim::kNeverNs and never wins while live lanes are in flight, so
      // the remaining tasks flow around it.
      probe::ProbeSpan span(prt(), probe::Phase::kSteal, ppe, "pick");
      for (std::size_t k = 0; k < fused_lanes_; ++k) {
        peeks[k] = q.busy(k) ? lanes_[k].peek_ns() : sim::kNeverNs;
      }
    }
    const std::size_t k = balance::pick_earliest(peeks, q);
    // The guard's retry loop already ran in finish(); a lane that gave
    // up has just this task's range recomputed on the PPE.
    StealPool::Entry& e = pool.entries[q.task_of(k)];
    const Lane::Result r = finish(*e.plan, *e.task, lanes_[k], e.image);
    if (r.attempts > 1) retries += static_cast<std::size_t>(r.attempts - 1);
    q.complete(k);
    steal_issue(pool, k);
  }
  steal_tasks_counter_->add(q.tasks());
  steal_arms_counter_->add(q.arms());
  steal_steals_counter_->add(q.steals());
  return retries;
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

bool CellEngine::cache_try_serve(const img::SicEncoded& image,
                                 AnalysisResult* out, std::uint64_t* key) {
  sim::ScalarContext& ppe = machine_.ppe();
  probe::ProbeSpan span(prt(), probe::Phase::kCache, ppe, "cache_lookup");
  // The modelled digest pass is byte-serial on the PPE, over the ENCODED
  // carrier (no decode needed to recognize a duplicate): one IntAlu per
  // byte. The host computes the key word-wide; only its equality shows.
  ppe.charge(sim::OpClass::kIntAlu, image.bytes.size());
  *key = balance::content_digest(image.bytes.data(), image.bytes.size());
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

void CellEngine::note_image_done() {
  images_counter_->add(1);
  sim::ScalarContext& ppe = machine_.ppe();
  if (ppe.trace_on()) {
    ppe.trace_track()->instant(trace::Category::kRuntime, "image_done",
                               ppe.now_ns(), "count",
                               images_counter_->value());
  }
}

}  // namespace cellport::marvel
