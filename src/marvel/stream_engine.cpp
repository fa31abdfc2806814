#include "marvel/stream_engine.h"

#include <algorithm>
#include <cstring>

#include "features/texture.h"
#include "shard/mirror.h"
#include "shard/reducer.h"
#include "support/error.h"

namespace cellport::marvel {

namespace {

std::size_t padded_dim(int dim) {
  return cellport::round_up(static_cast<std::size_t>(dim), 8);
}

}  // namespace

StreamEngine::StreamEngine(CellEngine& engine, const StreamOptions& opts)
    : engine_(engine), opts_(opts) {
  if (opts_.batch < 1 || opts_.batch > 128) {
    throw cellport::ConfigError("stream batch must be 1..128");
  }
  // cellbalance also forces the sequential window loop: the steal flow
  // issues tasks with Send/Wait (one in flight per lane), so a second
  // window's arm wave cannot overlap the first's drain.
  pipelined_ = !opts_.sequential && !engine_.guard_.enabled &&
               engine_.scenario_ != Scenario::kSingleSPE &&
               !engine_.balanced_;
  if (engine_.guard_.enabled) {
    guard_deadline_ns_ = engine_.guard_.retry.deadline_ns;
  }
  const bool sharded = engine_.scenario_ == Scenario::kSharded;
  for (int s = 0; s < 4; ++s) {
    // cellserve degrade ladder: score only a prefix of each slot's model
    // set. The clamp lands once, here, and every path below (detect
    // messages, shard blocks, fallbacks, collect) reads scored_models_.
    const auto full =
        static_cast<int>(engine_.slots_[s].set->models.size());
    scored_models_[s] =
        opts_.max_models > 0 ? std::min(full, opts_.max_models) : full;
    if (sharded) {
      cd_blocks_[s] =
          shard::split_rows(scored_models_[s], engine_.plan_.detect_spes);
    }
  }
  // Raw-partial bytes per shard (TX is tile-count dependent and (re)sized
  // in prepare_window; see CellEngine::setup_sharding).
  const std::size_t part_bytes[4] = {
      kernels::kShardChWords * sizeof(std::uint32_t),
      kernels::kShardCcWords * sizeof(std::uint32_t),
      0,
      kernels::kShardEhWords * sizeof(std::uint32_t),
  };
  const auto B = static_cast<std::size_t>(opts_.batch);
  for (auto& parity : bufs_) {
    parity.reserve(B);
    for (std::size_t j = 0; j < B; ++j) {
      auto pi = std::make_unique<PerImage>();
      for (int s = 0; s < 4; ++s) {
        CellEngine::FeatureSlot& slot = engine_.slots_[s];
        SlotBuf& sb = pi->sb[s];
        sb.out = cellport::AlignedBuffer<float>(padded_dim(slot.dim));
        sb.scores = cellport::AlignedBuffer<double>(slot.scores.size());
        // The detection message is static per buffer: it reads this
        // buffer's feature vector and writes this buffer's scores. The
        // model descriptors stay shared, read-only, with the engine.
        kernels::DetectMsg& dm = *sb.detect_msg;
        dm = *slot.detect_msg;
        dm.num_models = scored_models_[s];
        dm.feature_ea = reinterpret_cast<std::uint64_t>(sb.out.data());
        dm.scores_ea = reinterpret_cast<std::uint64_t>(sb.scores.data());
        if (!sharded) continue;
        const auto n =
            static_cast<std::size_t>(engine_.plan_.extract_shards[s]);
        sb.shard_msgs =
            std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
        sb.shard_parts.resize(n);
        if (part_bytes[s] > 0) {
          for (auto& p : sb.shard_parts) {
            p = cellport::AlignedBuffer<std::uint8_t>(part_bytes[s]);
          }
        }
        // Detection block staging is static per buffer like detect_msg:
        // the block split depends only on the model count.
        const auto d = static_cast<std::size_t>(engine_.plan_.detect_spes);
        sb.block_msgs =
            std::vector<port::WrappedMessage<kernels::DetectMsg>>(d);
        sb.block_scores.resize(d);
        for (std::size_t b = 0; b < d; ++b) {
          const shard::Range& block = cd_blocks_[s][b];
          sb.block_scores[b] =
              cellport::AlignedBuffer<double>(sb.scores.size());
          if (block.empty()) continue;
          kernels::DetectMsg& bm = *sb.block_msgs[b];
          bm = dm;
          bm.model_begin = block.begin;
          bm.num_models = block.count();
          bm.scores_ea =
              reinterpret_cast<std::uint64_t>(sb.block_scores[b].data());
        }
      }
      parity.push_back(std::move(pi));
    }
  }
}

port::SPEInterface* StreamEngine::ensure_ring(port::SPEInterface* iface,
                                              std::uint32_t cap) {
  if (iface == nullptr) return nullptr;
  if (cap < 2) cap = 2;
  if (!iface->ring_configured()) {
    iface->set_ring_capacity(cap);
  } else if (iface->ring_capacity() < cap) {
    throw cellport::ConfigError(
        "stream ring smaller than the window needs");
  }
  return iface;
}

template <class Fallback>
void StreamEngine::rerun(Lane& lane, int opcode, std::uint64_t ea,
                         const std::string& tag, Fallback&& fallback) {
  ++stats_.request_retries;
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  const sim::SimTime retry_t0 = ppe.now_ns();
  Lane::Result r = lane.call(opcode, ea);
  engine_.rt_.add_closed(probe::Phase::kGuardRetry, tag, retry_t0,
                         ppe.now_ns());
  if (!r.ok) fallback();
}

template <class Rerun>
void StreamEngine::wait_ring(Lane& lane, std::size_t n, const char* stage,
                             Rerun&& rerun_one) {
  port::SPEInterface* iface = lane.iface();
  if (iface == nullptr) {
    // Guarded lane with every candidate SPE quarantined: the guard's
    // per-call loop still yields verdicts, which drop to the PPE.
    for (std::size_t i = 0; i < n; ++i) rerun_one(i);
    return;
  }
  std::vector<int> res;
  const sim::SimTime timeout =
      guard_deadline_ns_ > 0
          ? guard_deadline_ns_ * static_cast<sim::SimTime>(n)
          : -1;
  if (!iface->WaitBatch(&res, timeout)) {
    ++stats_.batch_timeouts;
    iface->reclaim();
    for (std::size_t i = 0; i < n; ++i) rerun_one(i);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (res[i] != port::SPEInterface::kRingFault) continue;
    if (!lane.guarded()) throw_ring_fault(stage, iface);
    rerun_one(i);
  }
}

std::size_t StreamEngine::window_begin(std::size_t w) const {
  return w * static_cast<std::size_t>(opts_.batch);
}

std::size_t StreamEngine::window_count(std::size_t w,
                                       std::size_t total) const {
  return std::min(static_cast<std::size_t>(opts_.batch),
                  total - window_begin(w));
}

StreamEngine::PerImage& StreamEngine::buf(std::size_t w, std::size_t j) {
  return *bufs_[w % 2][j];
}

void StreamEngine::prepare_window(
    std::size_t w, const std::vector<const img::SicEncoded*>& images) {
  const std::size_t base = window_begin(w);
  const std::size_t count = window_count(w, images.size());
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  for (std::size_t j = 0; j < count; ++j) {
    PerImage& pi = buf(w, j);
    const img::SicEncoded& image = *images[base + j];
    pi.pixels = engine_.ingest(image);
    // cellfeed fallbacks staged during ingest() belong to this image.
    pi.degraded = std::move(engine_.feed_pending_degraded_);
    engine_.feed_pending_degraded_.clear();
    stats_.fallbacks += pi.degraded.size();
    for (int s = 0; s < 4; ++s) {
      // Listing 4's FILL_MSG_FROM_COLORIMAGE, against this window slot's
      // private message.
      ppe.charge(sim::OpClass::kStore, 12);
      kernels::ImageMsg& m = *pi.sb[s].msg;
      m.pixels_ea = reinterpret_cast<std::uint64_t>(pi.pixels.data());
      m.width = pi.pixels.width();
      m.height = pi.pixels.height();
      m.stride = pi.pixels.stride();
      m.buffering = engine_.buffering_;
      m.out_ea = reinterpret_cast<std::uint64_t>(pi.sb[s].out.data());
      m.out_count = engine_.slots_[s].dim;
    }
    if (engine_.fused_ || engine_.balanced_) {
      // cellfuse: extraction rides fused lanes instead of the feature
      // slots. Same small-image precondition as CellEngine::prepare_fused
      // (a fused lane always computes the wavelet texture). cellbalance
      // reuses the lane machinery at TASK granularity: the descriptor
      // split is tile-aligned and finer than the lane count, so lanes
      // can steal across it (and across images) in the wait phase.
      const int ih = pi.pixels.height();
      if (pi.pixels.width() < (1 << features::kTextureLevels) ||
          ih < (1 << features::kTextureLevels)) {
        throw cellport::ConfigError(
            "image too small for the 4-level wavelet texture");
      }
      const auto lanes_n = static_cast<int>(engine_.fused_lanes_.size());
      pi.fused_rows = engine_.balanced_
                          ? balance::split_tasks(ih, lanes_n)
                          : shard::split_fused(ih, lanes_n);
      const std::size_t n = pi.fused_rows.size();
      if (pi.fused_msgs.size() < n) {
        pi.fused_msgs =
            std::vector<port::WrappedMessage<kernels::ImageMsg>>(n);
      }
      if (pi.fused_parts.size() < n) pi.fused_parts.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        const shard::Range& r = pi.fused_rows[k];
        if (r.empty()) continue;
        const std::size_t bytes = kernels::fused_partial_bytes(
            pi.pixels.width(), ih, r.begin, r.end);
        if (pi.fused_parts[k].bytes() < bytes) {
          pi.fused_parts[k] =
              cellport::AlignedBuffer<std::uint8_t>(bytes);
        }
        ppe.charge(sim::OpClass::kStore, 4);
        kernels::ImageMsg& m = *pi.fused_msgs[k];
        m = *pi.sb[0].msg;
        m.row_begin = r.begin;
        m.row_end = r.end;
        m.out_ea = reinterpret_cast<std::uint64_t>(pi.fused_parts[k].data());
      }
      continue;
    }
    if (engine_.scenario_ != Scenario::kSharded) continue;
    // cellshard: the shard plan is fixed, the ranges follow this image's
    // shape. Each shard message is the slot message plus its row range,
    // writing the raw partial instead of the feature vector.
    for (int s = 0; s < 4; ++s) {
      SlotBuf& sb = pi.sb[s];
      const int n = engine_.plan_.extract_shards[s];
      sb.shard_rows = s == shard::kSlotTx
                          ? shard::split_tiles(pi.pixels.height(), n)
                          : shard::split_rows(pi.pixels.height(), n);
      for (int k = 0; k < n; ++k) {
        const shard::Range& r = sb.shard_rows[static_cast<std::size_t>(k)];
        if (r.empty()) continue;
        if (s == shard::kSlotTx) {
          const auto bytes = static_cast<std::size_t>(
                                 shard::tx_partial_doubles(r)) *
                             sizeof(double);
          auto& part = sb.shard_parts[static_cast<std::size_t>(k)];
          if (part.bytes() < bytes) {
            part = cellport::AlignedBuffer<std::uint8_t>(bytes);
          }
        }
        ppe.charge(sim::OpClass::kStore, 4);
        kernels::ImageMsg& m = *sb.shard_msgs[static_cast<std::size_t>(k)];
        m = *sb.msg;
        m.row_begin = r.begin;
        m.row_end = r.end;
        m.out_ea = reinterpret_cast<std::uint64_t>(
            sb.shard_parts[static_cast<std::size_t>(k)].data());
      }
    }
  }
}

int StreamEngine::flush_ring(port::SPEInterface* iface) {
  int n = iface->FlushBatch();
  if (n > 0) ++stats_.doorbells;
  return n;
}

void StreamEngine::flush_shard_slot(std::size_t w, std::size_t total,
                                    int s) {
  const std::size_t count = window_count(w, total);
  const auto cap = static_cast<std::uint32_t>(opts_.batch) *
                   (pipelined_ ? 2u : 1u);
  const auto spu_run = static_cast<int>(kernels::SPU_Run);
  std::vector<Lane>& lanes = engine_.slots_[s].lanes;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    port::SPEInterface* iface = ensure_ring(lanes[k].iface(), cap);
    if (iface == nullptr) continue;  // guarded + closed: wait resolves it
    int enqueued = 0;
    for (std::size_t j = 0; j < count; ++j) {
      SlotBuf& sb = buf(w, j).sb[s];
      if (sb.shard_rows[k].empty()) continue;
      iface->Enqueue(spu_run, sb.shard_msgs[k].ea());
      ++enqueued;
    }
    if (enqueued > 0) flush_ring(iface);
  }
}

void StreamEngine::wait_shard_slot(std::size_t w, std::size_t total,
                                   int s) {
  const std::size_t count = window_count(w, total);
  CellEngine::FeatureSlot& slot = engine_.slots_[s];
  for (std::size_t k = 0; k < slot.lanes.size(); ++k) {
    // The requests this shard's ring actually carries for this window
    // (empty ranges were never enqueued).
    std::vector<std::size_t> live;
    for (std::size_t j = 0; j < count; ++j) {
      if (!buf(w, j).sb[s].shard_rows[k].empty()) live.push_back(j);
    }
    if (live.empty()) continue;
    wait_ring(slot.lanes[k], live.size(), "shard extract",
              [&](std::size_t i) {
      PerImage& pi = buf(w, live[i]);
      SlotBuf& sb = pi.sb[s];
      rerun(slot.lanes[k], static_cast<int>(kernels::SPU_Run),
            sb.shard_msgs[k].ea(),
            std::string(slot.name) + "[" + std::to_string(k) + "]", [&] {
        probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                              engine_.machine_.ppe(),
                              std::string("shard:") + slot.name);
        shard::ppe_partial(s, pi.pixels, sb.shard_rows[k],
                           sb.shard_parts[k].data(),
                           &engine_.machine_.ppe());
        note_degraded("shard", s, pi);
      });
    });
  }
}

void StreamEngine::reduce_window(std::size_t w, std::size_t total) {
  const std::size_t count = window_count(w, total);
  sim::ScalarContext* ppe = &engine_.machine_.ppe();
  const bool fused = engine_.fused_ || engine_.balanced_;
  for (std::size_t j = 0; j < count; ++j) {
    PerImage& pi = buf(w, j);
    const int iw = pi.pixels.width();
    const int ih = pi.pixels.height();
    for (int s = 0; s < 4; ++s) {
      SlotBuf& sb = pi.sb[s];
      if (fused) {
        shard::reduce_fused(s, pi.fused_rows, pi.fused_parts, iw, ih,
                            sb.out.data(), ppe);
      } else {
        shard::reduce_shards(s, sb.shard_rows, sb.shard_parts, iw, ih,
                             sb.out.data(), ppe);
      }
    }
    (fused ? engine_.fuse_images_counter_ : engine_.shard_reduce_counter_)
        ->add(1);
  }
}

void StreamEngine::run_detect_sharded(std::size_t w, std::size_t total) {
  const std::size_t count = window_count(w, total);
  const auto spu_run = static_cast<int>(kernels::SPU_Run);
  const auto cap = static_cast<std::uint32_t>(opts_.batch) * 4u;
  // Detection lane b carries block b of EVERY slot's model set —
  // 4 * count requests behind one doorbell.
  for (std::size_t b = 0; b < engine_.detect_lanes_.size(); ++b) {
    std::vector<std::pair<std::size_t, int>> live;  // (image, slot)
    for (std::size_t j = 0; j < count; ++j) {
      for (int s = 0; s < 4; ++s) {
        if (!cd_blocks_[s][b].empty()) live.emplace_back(j, s);
      }
    }
    if (live.empty()) continue;
    Lane& lane = engine_.detect_lanes_[b];
    if (port::SPEInterface* iface = ensure_ring(lane.iface(), cap)) {
      for (const auto& [j, s] : live) {
        iface->Enqueue(spu_run, buf(w, j).sb[s].block_msgs[b].ea());
      }
      flush_ring(iface);
    }
    wait_ring(lane, live.size(), "shard detect", [&](std::size_t i) {
      const int s = live[i].second;
      PerImage& pi = buf(w, live[i].first);
      SlotBuf& sb = pi.sb[s];
      CellEngine::FeatureSlot& slot = engine_.slots_[s];
      rerun(lane, spu_run, sb.block_msgs[b].ea(),
            "cd[" + std::to_string(b) + "]:" + std::string(slot.name), [&] {
        probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                              engine_.machine_.ppe(),
                              std::string("detect:") + slot.name);
        shard::ppe_detect_block(sb.out.data(), slot.dim, *slot.set,
                                cd_blocks_[s][b], sb.block_scores[b].data(),
                                &engine_.machine_.ppe());
        note_degraded("detect", s, pi);
      });
    });
  }
  // Concatenate the staged blocks into each image's score arrays.
  sim::ScalarContext* ppe = &engine_.machine_.ppe();
  for (std::size_t j = 0; j < count; ++j) {
    for (int s = 0; s < 4; ++s) {
      SlotBuf& sb = buf(w, j).sb[s];
      std::vector<const double*> parts;
      std::vector<int> counts;
      for (std::size_t b = 0; b < sb.block_scores.size(); ++b) {
        if (cd_blocks_[s][b].empty()) continue;
        parts.push_back(sb.block_scores[b].data());
        counts.push_back(cd_blocks_[s][b].count());
      }
      shard::concat_scores(parts.data(), counts.data(),
                           static_cast<int>(parts.size()),
                           sb.scores.data(), ppe);
    }
  }
}

// ---- cellfuse flows ----
//
// The call sites still iterate the four feature slots; with the fused
// knob on, slot 0 carries the whole window over the lane rings and the
// other slots are no-ops (their extraction happened in the fused pass).

void StreamEngine::flush_fused_window(std::size_t w, std::size_t total) {
  const std::size_t count = window_count(w, total);
  const auto cap = static_cast<std::uint32_t>(opts_.batch) *
                   (pipelined_ ? 2u : 1u);
  const auto op = static_cast<int>(kernels::SPU_Run_Fused);
  const std::vector<Lane*>& lanes = engine_.fused_lanes_;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    port::SPEInterface* iface = ensure_ring(lanes[k]->iface(), cap);
    if (iface == nullptr) continue;  // guarded + closed: wait resolves it
    int enqueued = 0;
    for (std::size_t j = 0; j < count; ++j) {
      PerImage& pi = buf(w, j);
      if (pi.fused_rows[k].empty()) continue;
      iface->Enqueue(op, pi.fused_msgs[k].ea());
      ++enqueued;
    }
    if (enqueued > 0) flush_ring(iface);
  }
}

void StreamEngine::wait_fused_window(std::size_t w, std::size_t total) {
  const std::size_t count = window_count(w, total);
  const std::vector<Lane*>& lanes = engine_.fused_lanes_;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    std::vector<std::size_t> live;
    for (std::size_t j = 0; j < count; ++j) {
      if (!buf(w, j).fused_rows[k].empty()) live.push_back(j);
    }
    if (live.empty()) continue;
    wait_ring(*lanes[k], live.size(), "fused extract", [&](std::size_t i) {
      PerImage& pi = buf(w, live[i]);
      rerun(*lanes[k], static_cast<int>(kernels::SPU_Run_Fused),
            pi.fused_msgs[k].ea(), "fused[" + std::to_string(k) + "]",
            [&] { fallback_fused(pi, k, "fuse[" + std::to_string(k) + "]"); });
    });
  }
}

void StreamEngine::fallback_fused(PerImage& pi, std::size_t t,
                                  const std::string& label) {
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                        engine_.machine_.ppe(), label);
  shard::ppe_partial_fused(pi.pixels, pi.fused_rows[t],
                           pi.fused_parts[t].data(), &engine_.machine_.ppe());
  for (int s = 0; s < 4; ++s) note_degraded("fuse", s, pi);
}

// ---- cellbalance flows ----
//
// With the balanced knob on, extraction rides the fused lanes at TASK
// granularity: the whole window contributes one pool of tile-aligned
// descriptors (image-major), each lane is armed with one descriptor,
// and the wait phase hands whichever lane finishes first the next one —
// so a lane that drew a small image steals into its neighbours' work
// instead of idling, and a quarantined lane never gates the window.
// Reduction (reduce_window) still walks every image's descriptors in
// ascending row order, so results are bit-identical to the static fused
// split.

void StreamEngine::flush_balanced_window(std::size_t w,
                                         std::size_t total) {
  const std::size_t count = window_count(w, total);
  const std::size_t lanes = engine_.fused_lanes_.size();
  bal_pool_.clear();
  for (std::size_t j = 0; j < count; ++j) {
    PerImage& pi = buf(w, j);
    for (std::size_t t = 0; t < pi.fused_rows.size(); ++t) {
      if (!pi.fused_rows[t].empty()) bal_pool_.emplace_back(j, t);
    }
  }
  bal_q_ = std::make_unique<balance::TaskQueue>(bal_pool_.size(), lanes);
  bal_sent_.assign(bal_pool_.size(), 0);
  for (std::size_t k = 0; k < lanes; ++k) balanced_issue(w, k);
}

void StreamEngine::balanced_issue(std::size_t w, std::size_t k) {
  const std::size_t i = bal_q_->issue(k);
  if (i == balance::TaskQueue::kNone) return;
  bal_sent_[i] = engine_.machine_.ppe().now_ns();
  PerImage& pi = buf(w, bal_pool_[i].first);
  engine_.fused_lanes_[k]->send(static_cast<int>(kernels::SPU_Run_Fused),
                                pi.fused_msgs[bal_pool_[i].second].ea());
}

void StreamEngine::wait_balanced_window(std::size_t w) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  const std::vector<Lane*>& lanes = engine_.fused_lanes_;
  balance::TaskQueue& q = *bal_q_;
  std::vector<sim::SimTime> peeks(lanes.size(), sim::kNeverNs);
  while (!q.done()) {
    {
      // Non-destructive completion peeks (fixed lane order, so the MMIO
      // charges are deterministic); a hung or quarantined lane reports
      // kNeverNs and never wins while a live lane is busy.
      probe::ProbeSpan p(engine_.prt(), probe::Phase::kSteal, ppe,
                         "pick");
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        peeks[k] = q.busy(k) ? lanes[k]->peek_ns() : sim::kNeverNs;
      }
    }
    const std::size_t k = balance::pick_earliest(peeks, q);
    const std::size_t i = q.task_of(k);
    const std::size_t j = bal_pool_[i].first;
    const std::size_t t = bal_pool_[i].second;
    PerImage& pi = buf(w, j);
    const std::string tag =
        "task[" + std::to_string(j) + "." + std::to_string(t) + "]";
    // Finish() already ran the guard's retry loop; a lane that gave up
    // has just this task's range recomputed on the PPE.
    const Lane::Result r = engine_.settle(*lanes[k], tag, [&] {
      fallback_fused(pi, t, "fuse[task" + std::to_string(t) + "]");
    });
    if (r.attempts > 1) {
      stats_.request_retries += static_cast<std::size_t>(r.attempts - 1);
    }
    engine_.rt_.add_spe_span(probe::Phase::kExtract, tag, bal_sent_[i],
                             ppe.now_ns());
    q.complete(k);
    balanced_issue(w, k);
  }
  engine_.steal_tasks_counter_->add(q.tasks());
  engine_.steal_arms_counter_->add(q.arms());
  engine_.steal_steals_counter_->add(q.steals());
  bal_q_.reset();
}

void StreamEngine::flush_extract_slot(std::size_t w, std::size_t total,
                                      int s) {
  if (engine_.balanced_) {
    if (s == 0) flush_balanced_window(w, total);
    return;
  }
  if (engine_.fused_) {
    if (s == 0) flush_fused_window(w, total);
    return;
  }
  if (engine_.scenario_ == Scenario::kSharded) {
    flush_shard_slot(w, total, s);
    return;
  }
  const std::size_t count = window_count(w, total);
  const auto cap = static_cast<std::uint32_t>(opts_.batch) *
                   (pipelined_ ? 2u : 1u);
  port::SPEInterface* iface =
      ensure_ring(engine_.slots_[s].lanes[0].iface(), cap);
  if (iface == nullptr) return;  // guarded + closed: resolved in the wait
  const int opcode = engine_.extract_opcode(engine_.slots_[s]);
  for (std::size_t j = 0; j < count; ++j) {
    iface->Enqueue(opcode, buf(w, j).sb[s].msg.ea());
  }
  flush_ring(iface);
}

void StreamEngine::wait_extract_slot(std::size_t w, std::size_t total,
                                     int s) {
  if (engine_.balanced_) {
    if (s == 0) wait_balanced_window(w);
    return;
  }
  if (engine_.fused_) {
    if (s == 0) wait_fused_window(w, total);
    return;
  }
  if (engine_.scenario_ == Scenario::kSharded) {
    wait_shard_slot(w, total, s);
    return;
  }
  CellEngine::FeatureSlot& slot = engine_.slots_[s];
  wait_ring(slot.lanes[0], window_count(w, total), "extract",
            [&](std::size_t j) {
    PerImage& pi = buf(w, j);
    rerun(slot.lanes[0], engine_.extract_opcode(slot), pi.sb[s].msg.ea(),
          slot.name, [&] { fallback_extract(s, pi); });
  });
}

void StreamEngine::run_detect(std::size_t w, std::size_t total) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  const bool fused = engine_.fused_ || engine_.balanced_;
  if (fused || engine_.scenario_ == Scenario::kSharded) {
    // Lane/task blobs or shard partials must merge before detection can
    // read the feature vectors.
    probe::ProbeSpan span(engine_.prt(), probe::Phase::kReduce, ppe,
                          fused ? "fuse_reduce" : "reduce_window");
    reduce_window(w, total);
  }
  if (engine_.scenario_ == Scenario::kSharded) {
    probe::ProbeSpan span(engine_.prt(), probe::Phase::kDetect, ppe,
                          "detect_blocks");
    run_detect_sharded(w, total);
    return;
  }
  probe::ProbeSpan detect_span(engine_.prt(), probe::Phase::kDetect, ppe,
                               "detect");
  const std::size_t count = window_count(w, total);
  const auto spu_run = static_cast<int>(kernels::SPU_Run);

  if (engine_.scenario_ == Scenario::kMultiSPE2) {
    // Each slot's detection rides its own ring (one doorbell per slot).
    const auto cap = static_cast<std::uint32_t>(opts_.batch);
    for (int s = 0; s < 4; ++s) {
      Lane& lane = engine_.detect_lane(s);
      if (port::SPEInterface* iface = ensure_ring(lane.iface(), cap)) {
        for (std::size_t j = 0; j < count; ++j) {
          iface->Enqueue(spu_run, buf(w, j).sb[s].detect_msg.ea());
        }
        flush_ring(iface);
      }
      wait_ring(lane, count, "detect",
                [&](std::size_t j) { rerun_detect(s, buf(w, j)); });
    }
    return;
  }

  // Shared concept-detection SPE: all 4*count requests ride one ring
  // behind one doorbell.
  const auto cap = static_cast<std::uint32_t>(opts_.batch) * 4u;
  Lane& lane = engine_.detect_lane(0);
  if (port::SPEInterface* iface = ensure_ring(lane.iface(), cap)) {
    for (std::size_t j = 0; j < count; ++j) {
      for (int s = 0; s < 4; ++s) {
        iface->Enqueue(spu_run, buf(w, j).sb[s].detect_msg.ea());
      }
    }
    flush_ring(iface);
  }
  wait_ring(lane, 4 * count, "detect", [&](std::size_t i) {
    rerun_detect(static_cast<int>(i % 4), buf(w, i / 4));
  });
}

void StreamEngine::collect_window(std::size_t w, std::size_t total,
                                  std::vector<AnalysisResult>* out) {
  const std::size_t count = window_count(w, total);
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  for (std::size_t j = 0; j < count; ++j) {
    PerImage& pi = buf(w, j);
    AnalysisResult result;
    features::FeatureVector* fvs[4] = {
        &result.color_histogram, &result.color_correlogram,
        &result.texture, &result.edge_histogram};
    DetectionScores* ds[4] = {&result.ch_detect, &result.cc_detect,
                              &result.tx_detect, &result.eh_detect};
    for (int s = 0; s < 4; ++s) {
      CellEngine::FeatureSlot& slot = engine_.slots_[s];
      SlotBuf& sb = pi.sb[s];
      ppe.charge(sim::OpClass::kLoad,
                 static_cast<std::uint64_t>(slot.dim) + sb.scores.size());
      ppe.charge(sim::OpClass::kStore,
                 static_cast<std::uint64_t>(slot.dim) + sb.scores.size());
      fvs[s]->name = slot.name;
      fvs[s]->values.assign(sb.out.data(), sb.out.data() + slot.dim);
      ds[s]->values.assign(sb.scores.data(),
                           sb.scores.data() + scored_models_[s]);
    }
    result.degraded = std::move(pi.degraded);
    engine_.note_image_done();
    completions_.push_back(ppe.now_ns());
    out->push_back(std::move(result));
  }
}

void StreamEngine::rerun_detect(int s, PerImage& pi) {
  rerun(engine_.detect_lane(s), static_cast<int>(kernels::SPU_Run),
        pi.sb[s].detect_msg.ea(),
        std::string("cd:") + engine_.slots_[s].name,
        [&] { fallback_detect(s, pi); });
}

void StreamEngine::fallback_extract(int s, PerImage& pi) {
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                        engine_.machine_.ppe(),
                        std::string("extract:") + engine_.slots_[s].name);
  CellEngine::FeatureSlot& slot = engine_.slots_[s];
  features::FeatureVector fv =
      slot.ref_extract(pi.pixels, &engine_.machine_.ppe());
  engine_.machine_.ppe().charge(sim::OpClass::kStore,
                                static_cast<std::uint64_t>(slot.dim));
  std::memcpy(pi.sb[s].out.data(), fv.values.data(),
              static_cast<std::size_t>(slot.dim) * sizeof(float));
  note_degraded("extract", s, pi);
}

void StreamEngine::fallback_detect(int s, PerImage& pi) {
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kFallback,
                        engine_.machine_.ppe(),
                        std::string("detect:") + engine_.slots_[s].name);
  CellEngine::FeatureSlot& slot = engine_.slots_[s];
  features::FeatureVector fv;
  fv.name = slot.name;
  fv.values.assign(pi.sb[s].out.data(), pi.sb[s].out.data() + slot.dim);
  DetectionScores scores =
      reference_detect(fv, *slot.set, &engine_.machine_.ppe());
  engine_.machine_.ppe().charge(sim::OpClass::kStore,
                                scores.values.size());
  // Under a serve concept clamp only the scored prefix lands in the
  // buffer; the reference charge stays the full set (the PPE fallback
  // has no short-batch kernel to lean on).
  const auto copy = std::min(scores.values.size(),
                             static_cast<std::size_t>(scored_models_[s]));
  std::memcpy(pi.sb[s].scores.data(), scores.values.data(),
              copy * sizeof(double));
  note_degraded("detect", s, pi);
}

void StreamEngine::note_degraded(const char* stage, int s, PerImage& pi) {
  ++stats_.fallbacks;
  pi.degraded.push_back(std::string(stage) + ":" +
                        engine_.slots_[s].name);
  engine_.fallback_counter_->add(1);
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  if (ppe.trace_on()) {
    ppe.trace_track()->instant(trace::Category::kRuntime,
                               "ppe_fallback:" + pi.degraded.back(),
                               ppe.now_ns(), "count",
                               engine_.fallback_counter_->value());
  }
}

void StreamEngine::throw_ring_fault(const char* stage,
                                    port::SPEInterface* iface) {
  throw cellport::Error(std::string("stream ") + stage + " fault on '" +
                        iface->module().name() +
                        "': " + iface->module().last_error());
}

std::vector<AnalysisResult> StreamEngine::run(
    const std::vector<img::SicEncoded>& images) {
  std::vector<const img::SicEncoded*> ptrs;
  ptrs.reserve(images.size());
  for (const auto& image : images) ptrs.push_back(&image);
  return run_queue(ptrs);
}

std::size_t StreamEngine::submit(const img::SicEncoded& image) {
  if (closed_) {
    throw cellport::Error("StreamEngine::submit after close()");
  }
  pending_.push_back(&image);
  ends_.push_back(RequestEnd::kPending);
  return ends_.size() - 1;
}

std::vector<AnalysisResult> StreamEngine::drain() {
  if (closed_) {
    throw cellport::Error("StreamEngine::drain after close()");
  }
  std::vector<const img::SicEncoded*> queue;
  queue.swap(pending_);
  std::vector<AnalysisResult> results = run_queue(queue);
  // Everything run_queue returned is terminal: the queue's requests are
  // the last queue.size() submits still pending.
  for (std::size_t i = ends_.size() - queue.size(); i < ends_.size(); ++i) {
    ends_[i] = RequestEnd::kCompleted;
  }
  return results;
}

std::vector<StreamEngine::RequestEnd> StreamEngine::close() {
  if (!closed_) {
    closed_ = true;
    const std::size_t dropped = pending_.size();
    pending_.clear();
    if (dropped > 0) {
      // Early shutdown with requests still queued: every one of them
      // gets an explicit kCancelled terminal state (and shows up in
      // stats/metrics) instead of vanishing.
      for (std::size_t i = ends_.size() - dropped; i < ends_.size(); ++i) {
        ends_[i] = RequestEnd::kCancelled;
      }
      stats_.cancelled += dropped;
      engine_.machine_.metrics().counter("stream.cancelled").add(dropped);
    }
  }
  return ends_;
}

std::vector<AnalysisResult> StreamEngine::run_queue(
    const std::vector<const img::SicEncoded*>& images) {
  const std::size_t was_cancelled = stats_.cancelled;
  stats_ = StreamStats{};
  stats_.cancelled = was_cancelled;
  completions_.clear();
  std::vector<AnalysisResult> results;
  if (images.empty()) return results;
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  const sim::SimTime t0 = ppe.now_ns();
  const std::size_t total_in = images.size();
  port::Profiler::Scope probe(engine_.profiler_, kPhaseStream);
  CellEngine::QuiesceOnUnwind quiesce_on_unwind(engine_);
  // One trace covers the whole streamed batch: windows overlap, so a
  // per-image tree would mis-assign the shared PPE work.
  if (engine_.probe_ != nullptr) engine_.rt_.start("stream", t0);
  probe::RequestTrace* rt = engine_.prt();

  // cellbalance: content-cache front end. Every queued image is
  // digested up front (inside the stream trace, as kCache spans); hits
  // are served at lookup time and only the misses run the window loop.
  // A serve concept clamp (opts_.max_models != 0) scores a prefix of
  // each model set, so clamped streams bypass the cache entirely rather
  // than serve or poison full-set entries.
  const bool caching = engine_.cache_on() && opts_.max_models == 0;
  std::vector<AnalysisResult> hit_results(caching ? total_in : 0);
  std::vector<sim::SimTime> hit_done(caching ? total_in : 0, 0);
  std::vector<char> is_hit(caching ? total_in : 0, 0);
  std::vector<const img::SicEncoded*> cold;
  std::vector<std::uint64_t> cold_keys;
  if (caching) {
    for (std::size_t i = 0; i < total_in; ++i) {
      std::uint64_t key = 0;
      if (engine_.cache_try_serve(*images[i], &hit_results[i], &key)) {
        is_hit[i] = 1;
        engine_.note_image_done();
        hit_done[i] = ppe.now_ns();
      } else {
        cold.push_back(images[i]);
        cold_keys.push_back(key);
      }
    }
  } else {
    cold = images;
  }

  const std::size_t total = cold.size();
  results.reserve(total);
  if (total > 0) {
    const std::size_t W =
        (total + static_cast<std::size_t>(opts_.batch) - 1) /
        static_cast<std::size_t>(opts_.batch);
    std::vector<sim::SimTime> win_sent(W, 0);

    auto wait_window = [&](std::size_t w) {
      probe::ProbeSpan span(rt, probe::Phase::kExtract, ppe,
                            "wait_extract");
      for (int s = 0; s < 4; ++s) {
        wait_extract_slot(w, total, s);
        engine_.rt_.add_spe_span(probe::Phase::kExtract,
                                 std::string(engine_.slots_[s].name) +
                                     "[w" + std::to_string(w) + "]",
                                 win_sent[w], ppe.now_ns());
      }
    };
    auto retire_window = [&](std::size_t w) {
      run_detect(w, total);
      probe::ProbeSpan span(rt, probe::Phase::kOutput, ppe,
                            "collect_window");
      collect_window(w, total, &results);
    };

    if (pipelined_) {
      // Two windows in flight per extract ring: the PPE decodes and
      // doorbells window w while the SPEs still extract window w-1.
      for (std::size_t w = 0; w < W; ++w) {
        {
          probe::ProbeSpan span(rt, probe::Phase::kDecode, ppe,
                                "prepare_window");
          prepare_window(w, cold);
        }
        {
          probe::ProbeSpan span(rt, probe::Phase::kDispatch, ppe,
                                "flush_extract");
          win_sent[w] = ppe.now_ns();
          for (int s = 0; s < 4; ++s) flush_extract_slot(w, total, s);
        }
        if (w > 0) {
          wait_window(w - 1);
          retire_window(w - 1);
        }
      }
      wait_window(W - 1);
      retire_window(W - 1);
    } else {
      // Guarded engines retire each window before the next doorbell so a
      // per-request retry can run alone through the lane's guard;
      // scenario 1 stays sequential at window granularity (each kernel's
      // batch retires before the next kernel starts).
      for (std::size_t w = 0; w < W; ++w) {
        {
          probe::ProbeSpan span(rt, probe::Phase::kDecode, ppe,
                                "prepare_window");
          prepare_window(w, cold);
        }
        if (engine_.scenario_ == Scenario::kSingleSPE) {
          probe::ProbeSpan span(rt, probe::Phase::kExtract, ppe,
                                "extract_seq");
          win_sent[w] = ppe.now_ns();
          for (int s = 0; s < 4; ++s) {
            flush_extract_slot(w, total, s);
            wait_extract_slot(w, total, s);
            engine_.rt_.add_spe_span(probe::Phase::kExtract,
                                     std::string(engine_.slots_[s].name) +
                                         "[w" + std::to_string(w) + "]",
                                     win_sent[w], ppe.now_ns());
          }
        } else {
          {
            probe::ProbeSpan span(rt, probe::Phase::kDispatch, ppe,
                                  "flush_extract");
            win_sent[w] = ppe.now_ns();
            for (int s = 0; s < 4; ++s) flush_extract_slot(w, total, s);
          }
          wait_window(w);
        }
        retire_window(w);
      }
    }
  }
  engine_.finish_request();

  if (caching) {
    // Fill the cache with the cold results (degraded ones never enter —
    // a later identical image must see the same guard accounting cold
    // would give it), then reassemble results and completion stamps in
    // input order. Hits completed at lookup time, so completion_ns() is
    // no longer non-decreasing when hits and misses interleave.
    for (std::size_t c = 0; c < results.size(); ++c) {
      if (results[c].degraded.empty()) {
        engine_.cache_store(cold_keys[c], results[c]);
      }
    }
    std::vector<AnalysisResult> merged(total_in);
    std::vector<sim::SimTime> done(total_in, 0);
    std::size_t c = 0;
    for (std::size_t i = 0; i < total_in; ++i) {
      if (is_hit[i] != 0) {
        merged[i] = std::move(hit_results[i]);
        done[i] = hit_done[i];
      } else {
        merged[i] = std::move(results[c]);
        done[i] = completions_[c];
        ++c;
      }
    }
    results = std::move(merged);
    completions_ = std::move(done);
  }

  stats_.images = total_in;
  stats_.elapsed_ns = ppe.now_ns() - t0;
  stats_.images_per_sec =
      stats_.elapsed_ns > 0
          ? static_cast<double>(total_in) / (stats_.elapsed_ns * 1e-9)
          : 0.0;
  engine_.machine_.metrics()
      .gauge("stream.images_per_sec")
      .set(stats_.images_per_sec);
  return results;
}

std::vector<AnalysisResult> CellEngine::analyze_stream(
    const std::vector<img::SicEncoded>& images, const StreamOptions& opts,
    StreamStats* stats) {
  StreamEngine stream(*this, opts);
  std::vector<AnalysisResult> results = stream.run(images);
  if (stats != nullptr) *stats = stream.stats();
  return results;
}

}  // namespace cellport::marvel
