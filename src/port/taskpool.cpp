#include "port/taskpool.h"

#include <utility>

#include "port/ring.h"
#include "sim/calibration.h"
#include "sim/libspe.h"
#include "sim/spu_mfcio.h"
#include "support/aligned.h"
#include "support/error.h"

namespace cellport::port {

namespace {

/// Worker mailbox protocol: a zero word exits; a word whose high half is
/// ring::kRingDoorbellWord carries a batched-dispatch count in its low
/// half (the descriptors sit in the worker's command block); otherwise
/// the word is task_id + 1 followed by {module pointer, opcode, wrapper
/// ea}.
constexpr std::uint64_t kExitWord = 0;

/// One batched-dispatch descriptor: what the four legacy mailbox words
/// carried, DMA-legal (32 bytes, 16-byte aligned).
struct alignas(16) TaskCmd {
  std::uint64_t task_plus1 = 0;
  std::uint64_t module = 0;
  std::uint64_t ea = 0;
  std::uint32_t opcode = 0;
  std::uint32_t pad_ = 0;
};
static_assert(sizeof(TaskCmd) == 32, "TaskCmd must stay DMA-legal");

/// Arguments handed to each worker thread through argv.
struct WorkerEnv {
  TaskPool* pool = nullptr;
  int worker_index = 0;
  /// Batched-dispatch command block (empty with the legacy protocol).
  cellport::AlignedBuffer<TaskCmd> block;
};

}  // namespace

int TaskPool::worker_main(std::uint64_t /*spe_id*/, std::uint64_t argv) {
  auto* env = reinterpret_cast<WorkerEnv*>(argv);
  sim::SpeContext* ctx = sim::current_spe();
  const KernelModule* resident = nullptr;
  TaskCmd* staging = nullptr;  // LS copy of the command block, retained

  auto run_task = [&](TaskId task, const KernelModule* module,
                      std::uint32_t opcode, std::uint64_t ea) {
    bool switched = module != resident;
    if (switched) {
      // Code switch: stream the kernel image into the local store and
      // re-enter it. (Functionally our kernels are host functions; the
      // cost is what hardware would pay.)
      double bytes = static_cast<double>(module->program().code_bytes);
      ctx->advance_ns(bytes / sim::calib::kDmaBandwidthBytesPerNs +
                      sim::calib::kDmaLatencyNs +
                      sim::calib::kCodeSwitchOverheadNs);
      resident = module;
    }

    sim::spu_ls_reset();
    CompletionEvent ev;
    try {
      module->invoke(opcode, ea);
    } catch (const cellport::Error& e) {
      // Surface the fault to the PPE in the completion event rather than
      // swallowing it: the scheduler records it, stats count it, and the
      // submitter can query task_failed()/task_error() after wait_all().
      ev.failed = true;
      ev.error = e.what();
    }
    ev.worker = env->worker_index;
    ev.task = task;
    ev.code_switched = switched;
    ctx->advance_ns(sim::calib::kSpuChannelCostNs);
    // completion_ts applies any injected hang schedule: the event still
    // arrives functionally (so the host never blocks on a hung worker)
    // but its delivery timestamp becomes kNeverNs.
    ev.ts = ctx->completion_ts(ctx->now_ns() + sim::calib::kMailboxLatencyNs);
    env->pool->post_completion(ev);
  };

  for (;;) {
    std::uint64_t tag = sim::spu_read_in_mbox();
    if (tag == kExitWord) return 0;

    if ((tag >> 32) == ring::kRingDoorbellWord) {
      // Batched dispatch: one doorbell covers `count` descriptors in the
      // worker's command block. Fetch them in one DMA, then run each task
      // exactly as the legacy path would — each still posts its own
      // completion event, so retry/quarantine bookkeeping is unchanged.
      auto count = static_cast<std::uint32_t>(tag);
      if (staging == nullptr) {
        // Drop any leftover scratch from tasks run over the legacy path
        // before retaining the staging block, or the retain would pin
        // that dead scratch below the floor permanently.
        sim::spu_ls_reset();
        staging = sim::spu_ls_alloc_array<TaskCmd>(env->block.size());
        sim::spu_ls_retain();
      }
      bool fetched = false;
      std::string fetch_error;
      try {
        sim::mfc_get(staging,
                     reinterpret_cast<std::uint64_t>(env->block.data()),
                     count * static_cast<std::uint32_t>(sizeof(TaskCmd)),
                     ring::kStageTag);
        sim::mfc_write_tag_mask(1u << ring::kStageTag);
        sim::mfc_read_tag_status_all();
        fetched = true;
      } catch (const cellport::Error& e) {
        fetch_error = e.what();
        std::fprintf(stderr, "[taskpool] staging fetch fault: %s\n",
                     e.what());
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        // On a faulted staging fetch the task IDs are recovered from the
        // host-visible command block (byte-identical to what the DMA
        // would have staged) so each task can post a *failed* completion
        // and flow through the scheduler's normal retry machinery.
        const TaskCmd& cmd = fetched ? staging[i] : env->block[i];
        if (fetched) {
          run_task(static_cast<TaskId>(cmd.task_plus1 - 1),
                   reinterpret_cast<const KernelModule*>(cmd.module),
                   cmd.opcode, cmd.ea);
        } else {
          CompletionEvent ev;
          ev.failed = true;
          ev.error = "batch staging fetch failed: " + fetch_error;
          ev.worker = env->worker_index;
          ev.task = static_cast<TaskId>(cmd.task_plus1 - 1);
          ctx->advance_ns(sim::calib::kSpuChannelCostNs);
          ev.ts = ctx->completion_ts(ctx->now_ns() +
                                     sim::calib::kMailboxLatencyNs);
          env->pool->post_completion(ev);
        }
      }
      continue;
    }

    TaskId task = static_cast<TaskId>(tag - 1);
    auto* module =
        reinterpret_cast<const KernelModule*>(sim::spu_read_in_mbox());
    auto opcode = static_cast<std::uint32_t>(sim::spu_read_in_mbox());
    std::uint64_t ea = sim::spu_read_in_mbox();
    run_task(task, module, opcode, ea);
  }
}

TaskPool::TaskPool(sim::Machine& machine, int num_workers)
    : machine_(machine) {
  if (num_workers < 1 || num_workers > machine.num_spes()) {
    throw cellport::ConfigError("TaskPool needs 1.." +
                                std::to_string(machine.num_spes()) +
                                " workers");
  }
  start_ns_ = machine_.ppe().now_ns();
  // Worker envs must outlive the threads; keep them on the heap keyed by
  // worker index (freed in the destructor after join).
  for (int w = 0; w < num_workers; ++w) {
    auto* env = new WorkerEnv;
    env->pool = this;
    env->worker_index = w;
    sim::SpeProgram prog{"taskpool_worker", 4 * 1024,
                         &TaskPool::worker_main};
    workers_.push_back(machine_.spawn(
        prog, reinterpret_cast<std::uint64_t>(env)));
    worker_idle_.push_back(true);
    worker_outstanding_.push_back(0);
    envs_.push_back(env);
  }
  events_.resize(static_cast<std::size_t>(num_workers));
  stats_.worker_busy_ns.assign(static_cast<std::size_t>(num_workers), 0);
  consecutive_faults_.assign(static_cast<std::size_t>(num_workers), 0);
  worker_restarted_.assign(static_cast<std::size_t>(num_workers), false);
  worker_quarantined_.assign(static_cast<std::size_t>(num_workers), false);
}

TaskPool::~TaskPool() { shutdown(); }

void TaskPool::set_retry_policy(const guard::RetryPolicy& policy) {
  policy_ = policy;
  policy_set_ = true;
}

void TaskPool::set_dispatch_batch(int n) {
  // 512 descriptors fill one maximal (16 KiB) MFC transfer; a larger
  // batch would gain nothing and break the single-DMA fetch.
  if (n < 1 || n > 512) {
    throw cellport::ConfigError("dispatch batch must be 1..512");
  }
  if (outstanding_ != 0) {
    throw cellport::ConfigError(
        "set_dispatch_batch with tasks outstanding");
  }
  dispatch_batch_ = n;
  if (n > 1) {
    for (void* p : envs_) {
      auto* env = static_cast<WorkerEnv*>(p);
      if (env->block.size() < static_cast<std::size_t>(n)) {
        env->block =
            cellport::AlignedBuffer<TaskCmd>(static_cast<std::size_t>(n));
      }
    }
  }
}

void TaskPool::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  try {
    wait_all();
  } catch (...) {
    // Shutdown must complete even when the drain reports a deadlock; any
    // stranded tasks were already marked failed or are abandoned here.
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    sim::spe_write_in_mbox(workers_[w], kExitWord);
    machine_.join(workers_[w]);
    stats_.worker_busy_ns[w] = workers_[w]->ctx().busy_ns();
  }
  for (void* env : envs_) delete static_cast<WorkerEnv*>(env);
  envs_.clear();
  workers_.clear();
  worker_idle_.clear();
  worker_outstanding_.clear();
}

TaskPool::TaskId TaskPool::submit(const KernelModule& module,
                                  std::uint32_t opcode, std::uint64_t ea,
                                  std::vector<TaskId> deps) {
  TaskId id = tasks_.size();
  TaskRecord rec;
  rec.module = &module;
  rec.opcode = opcode;
  rec.ea = ea;
  for (TaskId d : deps) {
    if (d >= tasks_.size()) {
      throw cellport::ConfigError("task depends on unknown task " +
                                  std::to_string(d));
    }
    if (!tasks_[d].done) {
      tasks_[d].dependents.push_back(id);
      ++rec.unmet_deps;
    }
  }
  tasks_.push_back(std::move(rec));
  ++incomplete_;
  if (tasks_.back().unmet_deps == 0) ready_.push_back(id);
  // With batched dispatch, defer to wait_all() so the accumulated
  // ready-set goes out in full batches instead of singletons per submit.
  if (dispatch_batch_ <= 1) pump_ready_tasks();
  return id;
}

void TaskPool::dispatch(int worker, TaskId task) {
  TaskRecord& rec = tasks_[task];
  rec.dispatch_ns = machine_.ppe().now_ns();
  sim::SpeThread* w = workers_[static_cast<std::size_t>(worker)];
  sim::spe_write_in_mbox(w, static_cast<std::uint64_t>(task) + 1);
  sim::spe_write_in_mbox(w, reinterpret_cast<std::uint64_t>(rec.module));
  sim::spe_write_in_mbox(w, rec.opcode);
  sim::spe_write_in_mbox(w, rec.ea);
  worker_idle_[static_cast<std::size_t>(worker)] = false;
  ++worker_outstanding_[static_cast<std::size_t>(worker)];
  ++outstanding_;
}

void TaskPool::dispatch_block(int worker, const std::vector<TaskId>& batch) {
  auto wi = static_cast<std::size_t>(worker);
  auto* env = static_cast<WorkerEnv*>(envs_[wi]);
  const sim::SimTime now = machine_.ppe().now_ns();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TaskRecord& rec = tasks_[batch[i]];
    rec.dispatch_ns = now;
    TaskCmd& cmd = env->block[i];
    cmd.task_plus1 = static_cast<std::uint64_t>(batch[i]) + 1;
    cmd.module = reinterpret_cast<std::uint64_t>(rec.module);
    cmd.ea = rec.ea;
    cmd.opcode = rec.opcode;
    // The four words the legacy protocol sent by mailbox become four
    // plain stores into the command block.
    machine_.ppe().charge(sim::OpClass::kStore, 4);
  }
  sim::spe_write_in_mbox(
      workers_[wi],
      (static_cast<std::uint64_t>(ring::kRingDoorbellWord) << 32) |
          static_cast<std::uint32_t>(batch.size()));
  worker_idle_[wi] = false;
  worker_outstanding_[wi] += batch.size();
  outstanding_ += batch.size();
  machine_.metrics().counter("taskpool.doorbells").add(1);
  machine_.metrics()
      .histogram("taskpool.batch_size")
      .record(static_cast<double>(batch.size()));
}

int TaskPool::pick_worker(int exclude) const {
  // A retried task goes to a *different* worker whenever one is healthy
  // anywhere in the pool — if the alternative is merely busy, we wait for
  // it rather than feed the task back to the worker that just failed it.
  bool other_healthy = false;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!worker_quarantined_[w] && static_cast<int>(w) != exclude) {
      other_healthy = true;
    }
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!worker_idle_[w] || worker_quarantined_[w]) continue;
    if (static_cast<int>(w) == exclude && other_healthy) continue;
    return static_cast<int>(w);
  }
  return -1;
}

bool TaskPool::has_eligible_worker() const {
  for (bool q : worker_quarantined_) {
    if (!q) return true;
  }
  return false;
}

void TaskPool::pump_ready_tasks() {
  if (dispatch_batch_ <= 1) {
    while (!ready_.empty()) {
      TaskId t = ready_.front();
      int w = pick_worker(tasks_[t].exclude_worker);
      if (w < 0) return;
      ready_.pop_front();
      dispatch(w, t);
    }
    return;
  }
  // Batched mode: fill each idle worker with up to dispatch_batch_ ready
  // tasks and ring one doorbell per worker. FIFO order is preserved —
  // when the front task may not run on the chosen worker (retry
  // exclusion), the batch stops there, just as the legacy loop stops when
  // the front task has no dispatchable worker.
  while (!ready_.empty()) {
    TaskId first = ready_.front();
    int w = pick_worker(tasks_[first].exclude_worker);
    if (w < 0) return;
    ready_.pop_front();
    std::vector<TaskId> batch{first};
    while (!ready_.empty() &&
           batch.size() < static_cast<std::size_t>(dispatch_batch_)) {
      TaskId t = ready_.front();
      if (tasks_[t].exclude_worker == w) {
        bool other_healthy = false;
        for (std::size_t k = 0; k < workers_.size(); ++k) {
          if (!worker_quarantined_[k] && static_cast<int>(k) != w) {
            other_healthy = true;
          }
        }
        if (other_healthy) break;
      }
      ready_.pop_front();
      batch.push_back(t);
    }
    dispatch_block(w, batch);
  }
}

void TaskPool::post_completion(const CompletionEvent& ev) {
  std::lock_guard lock(ev_mu_);
  events_[static_cast<std::size_t>(ev.worker)].push_back(ev);
  ev_cv_.notify_one();
}

sim::SimTime TaskPool::observe_ts(const CompletionEvent& ev,
                                  bool* timed_out) {
  // Deadline classification is purely simulated-time: a hung worker's
  // event carries a kNeverNs timestamp, a slow one simply arrives past
  // the policy deadline.
  const TaskRecord& rec = tasks_[ev.task];
  const bool hung = ev.ts >= sim::kNeverNs / 2;
  const sim::SimTime deadline_ns = policy_set_ ? policy_.deadline_ns : 0;
  *timed_out =
      hung || (deadline_ns > 0 && ev.ts - rec.dispatch_ns > deadline_ns);
  // The PPE observes a timed-out task at its deadline (or, for a hang
  // with no configured deadline, right now) — never at the kNeverNs
  // delivery timestamp, which would catapult the simulated clock.
  if (!*timed_out) return ev.ts;
  return deadline_ns > 0 ? rec.dispatch_ns + deadline_ns
                         : machine_.ppe().now_ns();
}

TaskPool::CompletionEvent TaskPool::wait_event() {
  // The conservative discrete-event rule: a worker that has not posted
  // yet may still deliver the earliest event, so wait for all of them.
  std::unique_lock lock(ev_mu_);
  ev_cv_.wait(lock, [&] {
    bool any = false;
    for (std::size_t w = 0; w < events_.size(); ++w) {
      if (worker_outstanding_[w] > 0 && events_[w].empty()) return false;
      any = any || !events_[w].empty();
    }
    return any;
  });
  std::size_t pick = events_.size();
  sim::SimTime pick_ts = 0;
  for (std::size_t w = 0; w < events_.size(); ++w) {
    if (events_[w].empty()) continue;
    bool timed_out = false;
    const sim::SimTime ts = observe_ts(events_[w].front(), &timed_out);
    if (pick == events_.size() || ts < pick_ts) {
      pick = w;
      pick_ts = ts;
    }
  }
  CompletionEvent ev = std::move(events_[pick].front());
  events_[pick].pop_front();
  return ev;
}

void TaskPool::wait_all() {
  while (incomplete_ > 0) {
    if (outstanding_ == 0) {
      if (ready_.empty()) {
        throw cellport::ConfigError(
            "TaskPool deadlock: tasks remain but none are ready (circular "
            "or never-satisfied dependences)");
      }
      if (!has_eligible_worker()) {
        // Graceful degradation instead of a shutdown hang: with every
        // worker quarantined the remaining tasks can never run.
        fail_remaining("TaskPool: all workers quarantined");
        break;
      }
      pump_ready_tasks();
      if (outstanding_ == 0) {
        fail_remaining("TaskPool: no dispatchable worker for ready tasks");
        break;
      }
      continue;
    }
    CompletionEvent ev = wait_event();
    TaskRecord& rec = tasks_[ev.task];
    bool timed_out = false;
    const sim::SimTime observed = observe_ts(ev, &timed_out);
    const sim::SimTime deadline_ns = policy_set_ ? policy_.deadline_ns : 0;
    // The PPE's event loop: interrupt delivery + MMIO acknowledgment.
    machine_.ppe().sync_to(observed + sim::calib::kInterruptLatencyNs);
    machine_.ppe().advance_ns(sim::calib::kPpeMmioCostNs);

    --outstanding_;
    // A batched worker only becomes idle once every task of its block
    // completed. (The guard against underflow covers events drained from
    // a worker that was restarted mid-block.)
    auto wi = static_cast<std::size_t>(ev.worker);
    if (worker_outstanding_[wi] > 0) --worker_outstanding_[wi];
    if (worker_outstanding_[wi] == 0) worker_idle_[wi] = true;
    if (ev.code_switched) stats_.code_switches += 1;
    if (timed_out) {
      stats_.timeouts += 1;
      machine_.metrics().counter("guard.timeouts").add(1);
    }

    const bool failed = ev.failed || timed_out;
    ++rec.attempts;
    if (failed) {
      note_worker_fault(ev.worker);
    } else {
      consecutive_faults_[static_cast<std::size_t>(ev.worker)] = 0;
    }

    if (failed && policy_set_ && rec.attempts < policy_.max_attempts &&
        has_eligible_worker()) {
      // Re-dispatch after bounded exponential backoff, preferring any
      // worker other than the one that just failed the task.
      stats_.retries += 1;
      machine_.metrics().counter("guard.retries").add(1);
      rec.exclude_worker = ev.worker;
      machine_.ppe().advance_ns(
          policy_.backoff_base_ns *
          static_cast<double>(1u << (rec.attempts - 1)));
      ready_.push_front(ev.task);
      pump_ready_tasks();
      continue;
    }

    rec.done = true;
    rec.failed = failed;
    rec.error = timed_out ? "task missed its deadline of " +
                                std::to_string(deadline_ns) + " ns"
                          : std::move(ev.error);
    --incomplete_;
    stats_.tasks_run += 1;
    if (rec.failed) stats_.faults += 1;
    for (TaskId dep : rec.dependents) {
      if (--tasks_[dep].unmet_deps == 0) ready_.push_back(dep);
    }
    pump_ready_tasks();
  }
  stats_.makespan_ns = machine_.ppe().now_ns() - start_ns_;
}

void TaskPool::note_worker_fault(int worker) {
  if (!policy_set_) return;
  auto w = static_cast<std::size_t>(worker);
  if (worker_quarantined_[w]) return;
  if (++consecutive_faults_[w] < policy_.quarantine_after) return;
  if (!worker_restarted_[w]) {
    // One fresh start before giving up on the SPE: restart clears a
    // transient-injection fault schedule (and the resident kernel, so
    // the next task pays a code switch).
    restart_worker(worker);
    worker_restarted_[w] = true;
    consecutive_faults_[w] = 0;
    stats_.restarts += 1;
    return;
  }
  worker_quarantined_[w] = true;
  stats_.quarantined_workers += 1;
  machine_.metrics().counter("guard.quarantined_spes").add(1);
}

void TaskPool::restart_worker(int worker) {
  auto w = static_cast<std::size_t>(worker);
  sim::SpeThread* old = workers_[w];
  sim::spe_write_in_mbox(old, kExitWord);
  machine_.join(old);
  int spe_index = old->ctx().id();
  old->ctx().fault_restart();
  sim::SpeProgram prog{"taskpool_worker", 4 * 1024, &TaskPool::worker_main};
  workers_[w] = machine_.spawn(
      prog, reinterpret_cast<std::uint64_t>(envs_[w]), spe_index);
  worker_idle_[w] = true;
  // The old thread drained its queued commands before exiting (their
  // events are already posted); the fresh worker starts with a clean
  // slate.
  worker_outstanding_[w] = 0;
}

void TaskPool::fail_remaining(const std::string& reason) {
  for (TaskRecord& rec : tasks_) {
    if (rec.done) continue;
    rec.done = true;
    rec.failed = true;
    rec.error = reason;
    --incomplete_;
    stats_.faults += 1;
  }
  ready_.clear();
}

bool TaskPool::task_failed(TaskId id) const {
  if (id >= tasks_.size()) {
    throw cellport::ConfigError("task_failed: unknown task " +
                                std::to_string(id));
  }
  return tasks_[id].failed;
}

const std::string& TaskPool::task_error(TaskId id) const {
  if (id >= tasks_.size()) {
    throw cellport::ConfigError("task_error: unknown task " +
                                std::to_string(id));
  }
  return tasks_[id].error;
}

TaskPool::Stats TaskPool::stats() {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    stats_.worker_busy_ns[w] = workers_[w]->ctx().busy_ns();
  }
  return stats_;
}

}  // namespace cellport::port
