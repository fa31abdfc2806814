// cellstream: the streaming throughput engine behind
// CellEngine::analyze_stream().
//
// Where analyze() pays the stub protocol per call (one mailbox
// round-trip per kernel invocation), StreamEngine admits a queue of
// encoded images and drives every scheduled SPE through its DMA-resident
// command ring: a window of `batch` requests is enqueued with plain
// stores and doorbelled with ONE mailbox word, and the SPE dispatcher
// overlaps each request's output DMA with the next request's input DMA.
// In the parallel scenarios two windows are kept in flight per ring —
// the PPE decodes window w+1 while the SPEs extract window w — so the
// rings stay non-empty and the protocol cost amortizes to ~1/batch of a
// per-call run. Results are bit-exact with per-call analyze().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "marvel/cell_engine.h"

namespace cellport::marvel {

class StreamEngine {
 public:
  /// Borrows `engine`'s SPE placement (rings are armed lazily on its
  /// interfaces). `opts.batch` must be 1..128.
  StreamEngine(CellEngine& engine, const StreamOptions& opts);

  /// Streams the queue through the engine; one AnalysisResult per image,
  /// in order, bit-exact with per-call analyze().
  std::vector<AnalysisResult> run(const std::vector<img::SicEncoded>& images);

  /// Terminal state of one submitted request. A request is kPending from
  /// submit() until the drain() that services it (kCompleted) or the
  /// close() that cancels it (kCancelled) — close() never discards a
  /// queued-but-unstarted request silently.
  enum class RequestEnd : std::uint8_t { kPending, kCompleted, kCancelled };

  /// cellserve: incremental admission. Queues one encoded image for the
  /// next drain() and returns its request index. The caller keeps the
  /// image alive until that drain. Throws after close().
  std::size_t submit(const img::SicEncoded& image);
  /// Services every queued request in submit order (same schedule run()
  /// would charge for the same queue) and marks them kCompleted.
  std::vector<AnalysisResult> drain();
  /// Early shutdown: marks every queued-but-unstarted request
  /// kCancelled (counted in stats().cancelled and the stream.cancelled
  /// metric) and returns the terminal state of EVERY submitted request,
  /// in submit order. Idempotent; submit() after close() throws.
  std::vector<RequestEnd> close();

  const StreamStats& stats() const { return stats_; }
  /// Per-request terminal states so far (index = submit order).
  const std::vector<RequestEnd>& request_ends() const { return ends_; }
  /// Simulated completion time of each request of the last run()/drain()
  /// (the collect time of its window; windows retire in order). With the
  /// engine's content cache enabled, a hit completes at its up-front
  /// lookup instead, so the stamps are NOT necessarily non-decreasing
  /// when hits and misses interleave. Index-aligned with the returned
  /// results.
  const std::vector<sim::SimTime>& completion_ns() const {
    return completions_;
  }
  /// cellexec: the plan of image `j` of window `w` (valid until the
  /// window two later reuses it).
  const ImagePlan& plan(std::size_t w, std::size_t j) const {
    return *plans_[w % 2][j];
  }

 private:
  /// One of a window's tasks on a lane: its plan, the task and the
  /// image's position in the window.
  struct Queued {
    ImagePlan* plan;
    Task* task;
    int image;
  };

  std::size_t window_begin(std::size_t w) const;
  std::size_t window_count(std::size_t w, std::size_t total) const;
  /// Image `j`'s plan in window `w`.
  ImagePlan& at(std::size_t w, std::size_t j);

  /// The shared streaming loop behind run() and drain().
  std::vector<AnalysisResult> run_queue(
      const std::vector<const img::SicEncoded*>& images);
  /// Ingests window `w`'s images (`images` at the input positions
  /// `cold`) and builds their plans (the PPE-side work that overlaps
  /// in-flight extraction in the pipelined flow).
  void prepare_window(std::size_t w,
                      const std::vector<const img::SicEncoded*>& images,
                      const std::vector<std::size_t>& cold);

  // ---- the stream executor: a window of plans over the lane rings ----
  /// Window `w`'s tasks of `stage` on `lane`, image-major.
  std::vector<Queued> queued(std::size_t w, std::size_t count,
                             Stage ImagePlan::*stage, int lane);
  /// Arms `lane`'s ring, or re-arms it after a guard migration (sized
  /// for the window: batch x its tasks per image, x2 for a pipelined
  /// extraction stage, at least 2), enqueues the window's tasks on it and
  /// rings the doorbell if there were any. A guarded lane that is closed
  /// is skipped; its wait resolves it.
  void flush_lane(std::size_t w, std::size_t count, Stage ImagePlan::*stage,
                  int lane);
  /// Waits `lane`'s ring batch for window `w`; a faulted request re-runs
  /// alone, dropping to its task's PPE fallback when the guard gives up
  /// (a guarded lane; a plain one throws).
  void wait_lane(std::size_t w, std::size_t count, Stage ImagePlan::*stage,
                 int lane);
  /// The lanes window `w`'s bound tasks of `stage` run on (of slot
  /// `group`, or of every slot when -1), ascending: a lane whose range
  /// is empty in every image of the window is not driven.
  std::vector<int> lanes(std::size_t w, std::size_t count,
                         Stage ImagePlan::*stage, int group);
  /// Dispatches (flush) or completes (wait) window `w`'s extraction on
  /// the lanes reported under slot `s`. Balanced plans arm and drain the
  /// window-wide steal pool in slot 0 instead.
  void flush_extract(std::size_t w, std::size_t count, int s);
  void wait_extract(std::size_t w, std::size_t count, int s);
  /// Merges window `w`'s partials, then runs its detection stage lane
  /// by lane.
  void run_detect(std::size_t w, std::size_t count);
  /// Collects window `w`'s results into their input positions in `out`
  /// and completion_ns().
  void collect_window(std::size_t w, const std::vector<std::size_t>& cold,
                      std::vector<AnalysisResult>* out);

  CellEngine& engine_;
  StreamOptions opts_;
  StreamStats stats_;
  /// When true (unguarded parallel scenarios) two windows are in flight
  /// per extract ring; the guarded and single-SPE flows retire each
  /// window before the next doorbell.
  bool pipelined_ = false;
  sim::SimTime guard_deadline_ns_ = 0;
  /// Two windows of plans (even and odd windows), `batch` each.
  std::vector<std::unique_ptr<ImagePlan>> plans_[2];
  /// cellbalance: the current window's steal pool (image-major), live
  /// between the extraction flush and wait.
  StealPool pool_;
  /// Incremental-admission state (submit/drain/close).
  std::vector<const img::SicEncoded*> pending_;
  std::vector<RequestEnd> ends_;
  std::vector<sim::SimTime> completions_;
  bool closed_ = false;
};

}  // namespace cellport::marvel
