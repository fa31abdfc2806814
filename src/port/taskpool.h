// A dynamic task-scheduling runtime on top of the porting framework.
//
// The paper's strategy schedules kernels statically (one resident kernel
// per SPE) and names dynamic approaches — CellSs, MPI microtasks — as the
// "more sophisticated techniques" it is a starting point for (Sections 1
// and 6). TaskPool is that next step: the PPE submits tasks (kernel
// function + wrapper address + dependences), worker SPEs pull whatever is
// ready, and any worker can run any kernel at the cost of a *code
// switch* — re-loading the kernel image into the local store — which is
// exactly the overhead the paper's scenario 1 avoids by pinning kernels
// ("it avoids the dynamic code switching"). bench_dynamic quantifies that
// trade-off.
//
// Completion events reach the PPE through the libspe event-queue
// facility (the interrupting-mailbox path of Listing 1, aggregated
// across workers), carrying SPE timestamps so simulated time stays
// deterministic.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "port/dispatcher.h"
#include "sim/machine.h"

namespace cellport::port {

class TaskPool {
 public:
  using TaskId = std::size_t;

  /// Spawns `num_workers` generic worker SPEs on `machine`.
  TaskPool(sim::Machine& machine, int num_workers);
  /// Shuts the workers down (drains outstanding tasks first).
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Submits a task: run `module`'s function `opcode` on the wrapper at
  /// `ea` once every task in `deps` has completed. Returns its id.
  /// Throws cellport::Error after shutdown().
  TaskId submit(const KernelModule& module, std::uint32_t opcode,
                std::uint64_t ea, std::vector<TaskId> deps = {});

  /// Blocks until every submitted task has completed. The PPE clock
  /// advances to the time the last completion event was delivered.
  void wait_all();

  /// Exception-free drain + worker teardown (the destructor's path,
  /// callable early). Safe with a hung worker: its never-delivered
  /// completion fails the task rather than blocking forever.
  void shutdown();

  struct Stats {
    std::size_t tasks_run = 0;
    /// Worker invocations whose kernel image differed from the one
    /// resident in its local store (each pays a code-reload DMA).
    std::size_t code_switches = 0;
    /// Tasks whose kernel threw or whose worker hung; their dependents
    /// still ran (a failed task satisfies its dependences, mirroring a
    /// hardware SPE that signals completion with an error status word).
    std::size_t faults = 0;
    /// Completions that never arrived (a hung worker); each is also a
    /// fault.
    std::size_t timeouts = 0;
    /// Simulated time from construction to the last completion.
    sim::SimTime makespan_ns = 0;
    /// Per-worker simulated busy time.
    std::vector<sim::SimTime> worker_busy_ns;
  };
  Stats stats();

  /// True once `id` completed with a kernel fault. Valid after wait_all()
  /// (or any point after the completion event was consumed).
  bool task_failed(TaskId id) const;
  /// The fault message for a failed task; empty for a clean one.
  const std::string& task_error(TaskId id) const;

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct TaskRecord {
    const KernelModule* module = nullptr;
    std::uint32_t opcode = 0;
    std::uint64_t ea = 0;
    std::vector<TaskId> dependents;
    int unmet_deps = 0;
    bool done = false;
    bool failed = false;
    std::string error;
  };

  struct CompletionEvent {
    int worker = 0;
    TaskId task = 0;
    sim::SimTime ts = 0;
    bool code_switched = false;
    bool failed = false;
    std::string error;
    /// A hung worker's completion carries a kNeverNs timestamp.
    bool hung() const { return ts >= sim::kNeverNs / 2; }
  };

  // SPE-side worker program.
  static int worker_main(std::uint64_t spe_id, std::uint64_t argv);
  // Called from worker threads (the event-queue write).
  void post_completion(const CompletionEvent& ev);
  /// The simulated time the PPE observes `ev` at: its delivery timestamp,
  /// or now for a hung worker's never-delivered completion.
  sim::SimTime observe_ts(const CompletionEvent& ev) const;
  /// Retires the next event in simulated-time order: waits until every
  /// busy worker has posted its completion, then takes the earliest
  /// observe_ts(), ties broken by worker id — so the order never depends
  /// on host thread scheduling.
  CompletionEvent wait_event();

  // PPE-side dispatch (machine().ppe() charges apply).
  void dispatch(int worker, TaskId task);
  /// FIFO: hands ready tasks to idle workers, lowest index first.
  void pump_ready_tasks();

  sim::Machine& machine_;
  std::vector<sim::SpeThread*> workers_;
  /// Worker w has a dispatched task whose completion is not retired yet.
  std::vector<bool> worker_busy_;
  std::vector<void*> envs_;  // WorkerEnv*, freed after the workers join
  bool shut_down_ = false;

  std::vector<TaskRecord> tasks_;
  std::deque<TaskId> ready_;
  std::size_t outstanding_ = 0;  // dispatched but not completed
  std::size_t incomplete_ = 0;   // submitted but not completed

  std::mutex ev_mu_;
  std::condition_variable ev_cv_;
  /// Each worker's posted, not yet retired completion (one task at a
  /// time per worker, so one slot).
  std::vector<std::optional<CompletionEvent>> events_;

  Stats stats_;
  sim::SimTime start_ns_ = 0;
};

}  // namespace cellport::port
