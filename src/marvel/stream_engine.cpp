#include "marvel/stream_engine.h"

#include <algorithm>

#include "support/error.h"

namespace cellport::marvel {

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
  // Kernels of different in-flight images must not share buffers, so
  // every window slot has its own plan. The serve degrade ladder's
  // concept clamp (opts_.max_models) lands once, in each plan's
  // detection stage.
  for (auto& parity : plans_) {
    for (int j = 0; j < opts_.batch; ++j) {
      parity.push_back(std::make_unique<ImagePlan>());
      engine_.init_plan(*parity.back(), opts_.max_models);
    }
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

ImagePlan& StreamEngine::at(std::size_t w, std::size_t j) {
  return *plans_[w % 2][j];
}

void StreamEngine::prepare_window(
    std::size_t w, const std::vector<const img::SicEncoded*>& images,
    const std::vector<std::size_t>& cold) {
  const std::size_t base = window_begin(w);
  const std::size_t count = window_count(w, cold.size());
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  for (std::size_t j = 0; j < count; ++j) {
    ImagePlan& p = at(w, j);
    engine_.build_ingest(*images[cold[base + j]], p);
    engine_.run_ingest(p);
    p.queue_pos = base + j;
    engine_.build_plan(p);
    for (std::uint64_t m = 0; m < p.msgs_filled; ++m) {
      ppe.charge(sim::OpClass::kStore, 4);
    }
  }
}

// ---- the stream executor ----
//
// Each stage runs lane by lane: a lane's ring carries the window's tasks
// for it, image-major, behind one doorbell. The extraction stage arms
// every lane any image of the window drives and is flushed for the whole
// window before any wait; the detection stage flushes and waits one lane
// at a time. A balanced window pools every image's tasks
// for the steal loop instead.

std::vector<StreamEngine::Queued> StreamEngine::queued(
    std::size_t w, std::size_t count, Stage ImagePlan::*stage, int lane) {
  std::vector<Queued> out;
  for (std::size_t j = 0; j < count; ++j) {
    ImagePlan& p = at(w, j);
    for (Task& t : (p.*stage).tasks) {
      if (t.lane == lane) out.push_back({&p, &t, static_cast<int>(j)});
    }
  }
  return out;
}

void StreamEngine::flush_lane(std::size_t w, std::size_t count,
                              Stage ImagePlan::*stage, int lane) {
  const std::vector<Queued> tasks = queued(w, count, stage, lane);
  const std::vector<Task>& per_image = (at(w, 0).*stage).tasks;
  const auto on_lane = std::count_if(
      per_image.begin(), per_image.end(),
      [lane](const Task& t) { return t.lane == lane; });
  const auto cap = static_cast<std::uint32_t>(std::max<std::ptrdiff_t>(
      2, opts_.batch * std::max<std::ptrdiff_t>(on_lane, 1) *
             (pipelined_ && stage == &ImagePlan::extract ? 2 : 1)));
  port::SPEInterface* iface =
      engine_.lanes_[static_cast<std::size_t>(lane)].iface();
  if (iface == nullptr) return;  // guarded + closed: the wait resolves it
  if (!iface->ring_configured()) {
    iface->set_ring_capacity(cap);
  } else if (iface->ring_capacity() < cap) {
    throw cellport::ConfigError("stream ring smaller than the window needs");
  }
  for (const Queued& q : tasks) iface->Enqueue(q.task->opcode, q.task->msg_ea);
  if (!tasks.empty() && iface->FlushBatch() > 0) ++stats_.doorbells;
}

void StreamEngine::wait_lane(std::size_t w, std::size_t count,
                             Stage ImagePlan::*stage, int lane) {
  // Stage names of the ring-fault message, by task kind.
  static constexpr const char* kStage[] = {
      "extract", "shard extract", "fused extract", "detect", "shard detect"};
  const std::vector<Queued> tasks = queued(w, count, stage, lane);
  if (tasks.empty()) return;
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  Lane& l = engine_.lanes_[static_cast<std::size_t>(lane)];
  // Re-runs one request alone through the lane's guard retry loop
  // (recorded as a kGuardRetry span), dropping to its task's PPE
  // fallback when the guard gives up.
  auto rerun = [&](const Queued& q) {
    ++stats_.request_retries;
    const std::string tag = engine_.task_tag(*q.task, q.image);
    const sim::SimTime t0 = ppe.now_ns();
    const Lane::Result r = l.call(q.task->opcode, q.task->msg_ea);
    engine_.rt_.add_closed(probe::Phase::kGuardRetry, tag, t0, ppe.now_ns());
    if (!r.ok) engine_.fallback(*q.plan, *q.task, q.image);
  };
  // The batch waits under n times the per-call guard deadline. A guarded
  // lane with every candidate SPE quarantined (the guard's per-call loop
  // still yields verdicts) or a missed deadline (the batch is reclaimed)
  // re-runs all n; a faulted request re-runs alone on a guarded lane and
  // throws on a plain one.
  port::SPEInterface* iface = l.iface();
  std::vector<int> res;
  const sim::SimTime timeout =
      guard_deadline_ns_ > 0
          ? guard_deadline_ns_ * static_cast<sim::SimTime>(tasks.size())
          : -1;
  if (iface == nullptr || !iface->WaitBatch(&res, timeout)) {
    if (iface != nullptr) {
      ++stats_.batch_timeouts;
      iface->reclaim();
    }
    for (const Queued& q : tasks) rerun(q);
    return;
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (res[i] != port::SPEInterface::kRingFault) continue;
    if (!l.guarded()) {
      throw cellport::Error(
          std::string("stream ") +
          kStage[static_cast<std::size_t>(tasks[i].task->kind)] +
          " fault on '" + iface->module().name() +
          "': " + iface->module().last_error());
    }
    rerun(tasks[i]);
  }
}

std::vector<int> StreamEngine::lanes(std::size_t w, std::size_t count,
                                     Stage ImagePlan::*stage, int group) {
  std::vector<int> out;
  for (std::size_t j = 0; j < count; ++j) {
    for (const Task& t : (at(w, j).*stage).tasks) {
      if (t.lane >= 0 && (group < 0 || t.slot == group)) {
        out.push_back(t.lane);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void StreamEngine::flush_extract(std::size_t w, std::size_t count, int s) {
  if (at(w, 0).stolen) {
    // The window-wide pool: lanes finishing a small image's tasks steal
    // into the next image's, so one queue balances mixed-size traffic.
    if (s != 0) return;
    pool_.entries.clear();
    for (std::size_t j = 0; j < count; ++j) {
      for (Task& t : at(w, j).extract.tasks) {
        pool_.entries.push_back({&at(w, j), &t, static_cast<int>(j)});
      }
    }
    engine_.steal_arm(pool_);
    return;
  }
  for (int lane : lanes(w, count, &ImagePlan::extract, s)) {
    flush_lane(w, count, &ImagePlan::extract, lane);
  }
}

void StreamEngine::wait_extract(std::size_t w, std::size_t count, int s) {
  if (at(w, 0).stolen) {
    if (s == 0) stats_.request_retries += engine_.steal_drain(pool_);
    return;
  }
  for (int lane : lanes(w, count, &ImagePlan::extract, s)) {
    wait_lane(w, count, &ImagePlan::extract, lane);
  }
}

void StreamEngine::run_detect(std::size_t w, std::size_t count) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  const ImagePlan& p0 = at(w, 0);
  if (p0.partials != TaskKind::kFeature) {
    // Range partials must merge before detection can read the feature
    // vectors.
    probe::ProbeSpan span(
        engine_.prt(), probe::Phase::kReduce, ppe,
        p0.partials == TaskKind::kFused ? "fuse_reduce" : "reduce_window");
    for (std::size_t j = 0; j < count; ++j) engine_.reduce(at(w, j));
  }
  const bool blocks = p0.detect.tasks.front().kind == TaskKind::kBlock;
  probe::ProbeSpan span(engine_.prt(), probe::Phase::kDetect, ppe,
                        blocks ? "detect_blocks" : "detect");
  for (int lane : lanes(w, count, &ImagePlan::detect, -1)) {
    flush_lane(w, count, &ImagePlan::detect, lane);
    wait_lane(w, count, &ImagePlan::detect, lane);
  }
  if (!blocks) return;
  // Concatenate the staged blocks into each image's score arrays.
  for (std::size_t j = 0; j < count; ++j) {
    for (int s = 0; s < 4; ++s) engine_.concat_blocks(at(w, j), s);
  }
}

void StreamEngine::collect_window(std::size_t w,
                                  const std::vector<std::size_t>& cold,
                                  std::vector<AnalysisResult>* out) {
  sim::ScalarContext& ppe = engine_.machine_.ppe();
  const std::size_t base = window_begin(w);
  for (std::size_t j = 0; j < window_count(w, cold.size()); ++j) {
    const std::size_t i = cold[base + j];
    (*out)[i] = engine_.collect(at(w, j));
    stats_.fallbacks += (*out)[i].degraded.size();
    engine_.note_image_done();
    completions_[i] = ppe.now_ns();
  }
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
  std::vector<AnalysisResult> results(images.size());
  completions_.assign(images.size(), 0);
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
  // land in their input positions at lookup time and only the misses
  // (`cold`, by input position) run the window loop, which writes each
  // result into its own position too. A serve concept clamp
  // (opts_.max_models != 0) scores a prefix of each model set, so
  // clamped streams bypass the cache entirely rather than serve or
  // poison full-set entries.
  const bool caching = engine_.cache_on() && opts_.max_models == 0;
  std::vector<std::uint64_t> keys(caching ? total_in : 0);
  std::vector<std::size_t> cold;
  for (std::size_t i = 0; i < total_in; ++i) {
    if (caching && engine_.cache_try_serve(*images[i], &results[i], &keys[i])) {
      engine_.note_image_done();
      completions_[i] = ppe.now_ns();
    } else {
      cold.push_back(i);
    }
  }

  const std::size_t total = cold.size();
  if (total > 0) {
    const std::size_t W =
        (total + static_cast<std::size_t>(opts_.batch) - 1) /
        static_cast<std::size_t>(opts_.batch);
    std::vector<sim::SimTime> win_sent(W, 0);

    auto wait_slot = [&](std::size_t w, int s) {
      wait_extract(w, window_count(w, total), s);
      engine_.rt_.add_spe_span(probe::Phase::kExtract,
                               std::string(engine_.slots_[s].name) + "[w" +
                                   std::to_string(w) + "]",
                               win_sent[w], ppe.now_ns());
    };
    auto wait_window = [&](std::size_t w) {
      probe::ProbeSpan span(rt, probe::Phase::kExtract, ppe,
                            "wait_extract");
      for (int s = 0; s < 4; ++s) wait_slot(w, s);
    };
    auto retire_window = [&](std::size_t w) {
      run_detect(w, window_count(w, total));
      probe::ProbeSpan span(rt, probe::Phase::kOutput, ppe,
                            "collect_window");
      collect_window(w, cold, &results);
    };

    if (pipelined_) {
      // Two windows in flight per extract ring: the PPE decodes and
      // doorbells window w while the SPEs still extract window w-1.
      for (std::size_t w = 0; w < W; ++w) {
        {
          probe::ProbeSpan span(rt, probe::Phase::kDecode, ppe,
                                "prepare_window");
          prepare_window(w, images, cold);
        }
        {
          probe::ProbeSpan span(rt, probe::Phase::kDispatch, ppe,
                                "flush_extract");
          win_sent[w] = ppe.now_ns();
          for (int s = 0; s < 4; ++s) {
            flush_extract(w, window_count(w, total), s);
          }
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
          prepare_window(w, images, cold);
        }
        if (engine_.scenario_ == Scenario::kSingleSPE) {
          probe::ProbeSpan span(rt, probe::Phase::kExtract, ppe,
                                "extract_seq");
          win_sent[w] = ppe.now_ns();
          for (int s = 0; s < 4; ++s) {
            flush_extract(w, window_count(w, total), s);
            wait_slot(w, s);
          }
        } else {
          {
            probe::ProbeSpan span(rt, probe::Phase::kDispatch, ppe,
                                  "flush_extract");
            win_sent[w] = ppe.now_ns();
            for (int s = 0; s < 4; ++s) {
              flush_extract(w, window_count(w, total), s);
            }
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
    // would give it). Hits completed at lookup time, so completion_ns()
    // is no longer non-decreasing when hits and misses interleave.
    for (std::size_t i : cold) {
      if (results[i].degraded.empty()) {
        engine_.cache_store(keys[i], results[i]);
      }
    }
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
