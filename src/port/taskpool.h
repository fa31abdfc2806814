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
#include <string>
#include <vector>

#include "guard/policy.h"
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
  TaskId submit(const KernelModule& module, std::uint32_t opcode,
                std::uint64_t ea, std::vector<TaskId> deps = {});

  /// cellstream: dispatch up to `n` ready tasks per worker with ONE
  /// doorbell mailbox word instead of four mailbox writes per task — the
  /// PPE stores task descriptors into a per-worker command block that the
  /// worker DMA-fetches. With `n > 1` dispatch is deferred to wait_all()
  /// so the accumulated ready-set goes out in full batches. `n == 1`
  /// (the default) keeps the legacy per-task mailbox protocol
  /// bit-identical. `n` is capped at 512 (one maximal MFC transfer of
  /// descriptors); must be called while no task is outstanding.
  void set_dispatch_batch(int n);
  int dispatch_batch() const { return dispatch_batch_; }

  /// Blocks until every submitted task has completed. The PPE clock
  /// advances to the time the last completion event was delivered.
  void wait_all();

  /// Enables cellguard supervision: a faulted or deadline-missing task is
  /// re-dispatched (with exponential backoff) to a different worker; a
  /// worker with `quarantine_after` consecutive faults is restarted once,
  /// then quarantined. With every worker quarantined, remaining tasks are
  /// marked failed instead of deadlocking. Without a policy the legacy
  /// fault-surfacing behavior is unchanged.
  void set_retry_policy(const guard::RetryPolicy& policy);

  /// Exception-free drain + worker teardown (the destructor's path,
  /// callable early). Safe with hung or quarantined workers: timeouts
  /// fail the affected tasks rather than blocking forever.
  void shutdown();

  struct Stats {
    std::size_t tasks_run = 0;
    /// Worker invocations whose kernel image differed from the one
    /// resident in its local store (each pays a code-reload DMA).
    std::size_t code_switches = 0;
    /// Tasks whose kernel threw; their dependents still ran (a failed
    /// task satisfies its dependences, mirroring a hardware SPE that
    /// signals completion with an error status word).
    std::size_t faults = 0;
    /// Simulated time from construction to the last completion.
    sim::SimTime makespan_ns = 0;
    /// Per-worker simulated busy time.
    std::vector<sim::SimTime> worker_busy_ns;
    // ---- cellguard (all zero without a retry policy) ----
    /// Re-dispatches after a fault or missed deadline.
    std::size_t retries = 0;
    /// Completions that missed the policy deadline (includes hangs).
    std::size_t timeouts = 0;
    /// Workers restarted after hitting the quarantine threshold once.
    std::size_t restarts = 0;
    /// Workers permanently quarantined.
    std::size_t quarantined_workers = 0;
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
    // cellguard bookkeeping
    int attempts = 0;
    int exclude_worker = -1;       // last worker that faulted on this task
    sim::SimTime dispatch_ns = 0;  // PPE time of the latest dispatch
  };

  struct CompletionEvent {
    int worker = 0;
    TaskId task = 0;
    sim::SimTime ts = 0;
    bool code_switched = false;
    bool failed = false;
    std::string error;
  };

  // SPE-side worker program.
  static int worker_main(std::uint64_t spe_id, std::uint64_t argv);
  // Called from worker threads (the event-queue write).
  void post_completion(const CompletionEvent& ev);
  /// The simulated time the PPE observes `ev` at: its delivery timestamp,
  /// or the deadline (now, with no deadline set) for a task that missed
  /// it. `timed_out` receives the classification.
  sim::SimTime observe_ts(const CompletionEvent& ev, bool* timed_out);
  /// Retires the next event in simulated-time order: waits until every
  /// worker with outstanding tasks has posted its next event, then takes
  /// the earliest observe_ts(), ties broken by worker id — so the order
  /// never depends on host thread scheduling.
  CompletionEvent wait_event();

  // PPE-side dispatch (machine().ppe() charges apply).
  void dispatch(int worker, TaskId task);
  /// Batched dispatch: stores the tasks into `worker`'s command block and
  /// rings one doorbell.
  void dispatch_block(int worker, const std::vector<TaskId>& batch);
  void pump_ready_tasks();
  /// Idle, non-quarantined worker for a task excluding `exclude` (used
  /// only when no other healthy worker exists at all); -1 when none.
  int pick_worker(int exclude) const;
  bool has_eligible_worker() const;
  void note_worker_fault(int worker);
  void restart_worker(int worker);
  /// Marks every not-yet-done task failed (all workers quarantined).
  void fail_remaining(const std::string& reason);

  sim::Machine& machine_;
  std::vector<sim::SpeThread*> workers_;
  std::vector<bool> worker_idle_;
  std::vector<std::size_t> worker_outstanding_;  // dispatched, not completed
  std::vector<void*> envs_;  // WorkerEnv*, freed after the workers join
  int dispatch_batch_ = 1;

  guard::RetryPolicy policy_;
  bool policy_set_ = false;
  bool shut_down_ = false;
  std::vector<int> consecutive_faults_;
  std::vector<bool> worker_restarted_;
  std::vector<bool> worker_quarantined_;

  std::vector<TaskRecord> tasks_;
  std::deque<TaskId> ready_;
  std::size_t outstanding_ = 0;  // dispatched but not completed
  std::size_t incomplete_ = 0;   // submitted but not completed

  std::mutex ev_mu_;
  std::condition_variable ev_cv_;
  std::vector<std::deque<CompletionEvent>> events_;  // per worker, FIFO

  Stats stats_;
  sim::SimTime start_ns_ = 0;
};

}  // namespace cellport::port
