// cellbalance: dynamic work-stealing over the fused extraction lanes.
//
// The cellshard planner picks one static partition per image; on
// heterogeneous traffic (mixed sizes, quarantined SPEs, partial cache
// hits) the busiest lane gates the batch while the others idle. The
// balanced dispatcher splits the image into MORE, smaller tile-aligned
// tasks than there are lanes, arms every lane with one task, and hands
// each lane the next task the moment its current one completes — chosen
// by a non-consuming peek of every in-flight lane's completion timestamp
// (SPEInterface::peek_completion_ns), so a slow or hung lane simply never
// wins the argmin and the work flows around it.
//
// Bit-exactness: tasks are shard::split_fused ranges, reduced by the
// cellshard fixed-order reducers in TASK order (== ascending row order),
// which is exactly the order a static fused plan reduces — stolen-work
// results are bit-identical to static plans and to the unsharded kernels.
#pragma once

#include <cstddef>
#include <vector>

#include "shard/partials.h"
#include "sim/time.h"

namespace cellport::balance {

/// Default steal granularity: target tasks per lane. More tasks give the
/// scheduler finer material to rebalance with, at one extra dispatch +
/// reduce section each; ~4 per lane recovers most of the imbalance on
/// the mixed-size corpus without measurable dispatch overhead.
inline constexpr int kDefaultGrain = 4;

/// Number of balanced tasks for an image of height `h` over `lanes`
/// lanes: min(available Haar tiles, lanes * grain), at least 1. Tasks
/// can never outnumber tiles (a task must stay tile-aligned for TX).
int task_count(int h, int lanes, int grain = kDefaultGrain);

/// The balanced task partition: task_count() tile-aligned row ranges
/// covering [0, h), every one non-empty, in ascending row order
/// (shard::split_fused over the task count, so the fused kernel and the
/// PPE fallbacks agree on coverage).
std::vector<shard::Range> split_tasks(int h, int lanes,
                                      int grain = kDefaultGrain);

/// Bookkeeping for one steal-driven dispatch: which lane runs which task,
/// what is still unissued, and how many dispatches were initial arms vs
/// post-completion steals. The caller owns the actual sends/waits; this
/// class only sequences them deterministically.
class TaskQueue {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  TaskQueue(std::size_t tasks, std::size_t lanes);

  /// Assigns the next unissued task to `lane` (which must be idle).
  /// Returns the task index, or kNone when every task is issued. The
  /// first issue to a lane counts as an arm, later ones as steals.
  std::size_t issue(std::size_t lane);

  /// The task `lane` is currently running (kNone when idle).
  std::size_t task_of(std::size_t lane) const { return running_[lane]; }
  bool busy(std::size_t lane) const { return running_[lane] != kNone; }

  /// Marks `lane`'s current task complete and the lane idle.
  void complete(std::size_t lane);

  std::size_t in_flight() const { return in_flight_; }
  bool all_issued() const { return next_ == tasks_; }
  bool done() const { return all_issued() && in_flight_ == 0; }

  std::size_t tasks() const { return tasks_; }
  std::size_t lanes() const { return running_.size(); }
  std::size_t arms() const { return arms_; }
  std::size_t steals() const { return steals_; }

 private:
  std::size_t tasks_;
  std::size_t next_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t arms_ = 0;
  std::size_t steals_ = 0;
  std::vector<std::size_t> running_;  // lane -> task (kNone = idle)
  std::vector<bool> armed_;           // lane ever issued to
};

/// The steal decision: the busy lane whose peeked completion timestamp is
/// earliest, ties broken toward the lowest lane index (deterministic).
/// `peek_ns[k]` is ignored for idle lanes. Returns kNone when no lane is
/// busy. A hung lane's sim::kNeverNs peek loses to every live lane, so
/// the batch drains around it.
std::size_t pick_earliest(const std::vector<sim::SimTime>& peek_ns,
                          const TaskQueue& q);

}  // namespace cellport::balance
