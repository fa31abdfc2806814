#include "port/taskpool.h"

#include <utility>

#include "sim/calibration.h"
#include "sim/libspe.h"
#include "sim/spu_mfcio.h"
#include "support/error.h"

namespace cellport::port {

namespace {

/// Worker mailbox protocol: a zero word exits; otherwise the word is
/// task_id + 1 followed by {module pointer, opcode, wrapper ea}.
constexpr std::uint64_t kExitWord = 0;

/// Arguments handed to each worker thread through argv.
struct WorkerEnv {
  TaskPool* pool = nullptr;
  int worker_index = 0;
};

}  // namespace

int TaskPool::worker_main(std::uint64_t /*spe_id*/, std::uint64_t argv) {
  auto* env = reinterpret_cast<WorkerEnv*>(argv);
  sim::SpeContext* ctx = sim::current_spe();
  const KernelModule* resident = nullptr;

  for (;;) {
    std::uint64_t tag = sim::spu_read_in_mbox();
    if (tag == kExitWord) return 0;
    TaskId task = static_cast<TaskId>(tag - 1);
    auto* module =
        reinterpret_cast<const KernelModule*>(sim::spu_read_in_mbox());
    auto opcode = static_cast<std::uint32_t>(sim::spu_read_in_mbox());
    std::uint64_t ea = sim::spu_read_in_mbox();

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
  // worker index (freed in shutdown() after join).
  for (int w = 0; w < num_workers; ++w) {
    auto* env = new WorkerEnv;
    env->pool = this;
    env->worker_index = w;
    sim::SpeProgram prog{"taskpool_worker", 4 * 1024,
                         &TaskPool::worker_main};
    workers_.push_back(machine_.spawn(
        prog, reinterpret_cast<std::uint64_t>(env)));
    worker_busy_.push_back(false);
    envs_.push_back(env);
  }
  events_.resize(static_cast<std::size_t>(num_workers));
  stats_.worker_busy_ns.assign(static_cast<std::size_t>(num_workers), 0);
}

TaskPool::~TaskPool() { shutdown(); }

void TaskPool::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  try {
    wait_all();
  } catch (...) {
    // Shutdown must complete even when the drain reports a deadlock; the
    // tasks it stranded are abandoned here.
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    sim::spe_write_in_mbox(workers_[w], kExitWord);
    machine_.join(workers_[w]);
    stats_.worker_busy_ns[w] = workers_[w]->ctx().busy_ns();
  }
  for (void* env : envs_) delete static_cast<WorkerEnv*>(env);
  envs_.clear();
  workers_.clear();
  worker_busy_.clear();
}

TaskPool::TaskId TaskPool::submit(const KernelModule& module,
                                  std::uint32_t opcode, std::uint64_t ea,
                                  std::vector<TaskId> deps) {
  if (shut_down_) {
    throw cellport::Error("TaskPool::submit after shutdown()");
  }
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
  pump_ready_tasks();
  return id;
}

void TaskPool::dispatch(int worker, TaskId task) {
  const TaskRecord& rec = tasks_[task];
  sim::SpeThread* w = workers_[static_cast<std::size_t>(worker)];
  sim::spe_write_in_mbox(w, static_cast<std::uint64_t>(task) + 1);
  sim::spe_write_in_mbox(w, reinterpret_cast<std::uint64_t>(rec.module));
  sim::spe_write_in_mbox(w, rec.opcode);
  sim::spe_write_in_mbox(w, rec.ea);
  worker_busy_[static_cast<std::size_t>(worker)] = true;
  ++outstanding_;
}

void TaskPool::pump_ready_tasks() {
  std::size_t w = 0;
  while (!ready_.empty()) {
    while (w < workers_.size() && worker_busy_[w]) ++w;
    if (w == workers_.size()) return;
    dispatch(static_cast<int>(w), ready_.front());
    ready_.pop_front();
  }
}

void TaskPool::post_completion(const CompletionEvent& ev) {
  std::lock_guard lock(ev_mu_);
  events_[static_cast<std::size_t>(ev.worker)] = ev;
  ev_cv_.notify_one();
}

sim::SimTime TaskPool::observe_ts(const CompletionEvent& ev) const {
  // The PPE observes a hung worker's event right now: its kNeverNs
  // timestamp would catapult the simulated clock.
  return ev.hung() ? machine_.ppe().now_ns() : ev.ts;
}

TaskPool::CompletionEvent TaskPool::wait_event() {
  // The conservative discrete-event rule: a worker that has not posted
  // yet may still deliver the earliest event, so wait for all of them.
  std::unique_lock lock(ev_mu_);
  ev_cv_.wait(lock, [&] {
    for (std::size_t w = 0; w < events_.size(); ++w) {
      if (worker_busy_[w] && !events_[w]) return false;
    }
    return true;
  });
  std::size_t pick = events_.size();
  sim::SimTime pick_ts = 0;
  for (std::size_t w = 0; w < events_.size(); ++w) {
    if (!events_[w]) continue;
    const sim::SimTime ts = observe_ts(*events_[w]);
    if (pick == events_.size() || ts < pick_ts) {
      pick = w;
      pick_ts = ts;
    }
  }
  CompletionEvent ev = std::move(*events_[pick]);
  events_[pick].reset();
  return ev;
}

void TaskPool::wait_all() {
  while (incomplete_ > 0) {
    if (outstanding_ == 0) {
      // Every worker is idle, so only an empty ready queue stops the
      // front task from going out.
      if (ready_.empty()) {
        throw cellport::ConfigError(
            "TaskPool deadlock: tasks remain but none are ready (circular "
            "or never-satisfied dependences)");
      }
      pump_ready_tasks();
      continue;
    }
    CompletionEvent ev = wait_event();
    TaskRecord& rec = tasks_[ev.task];
    const bool hung = ev.hung();
    // The PPE's event loop: interrupt delivery + MMIO acknowledgment.
    machine_.ppe().sync_to(observe_ts(ev) + sim::calib::kInterruptLatencyNs);
    machine_.ppe().advance_ns(sim::calib::kPpeMmioCostNs);

    --outstanding_;
    worker_busy_[static_cast<std::size_t>(ev.worker)] = false;
    if (ev.code_switched) stats_.code_switches += 1;
    if (hung) {
      stats_.timeouts += 1;
      machine_.metrics().counter("guard.timeouts").add(1);
    }

    rec.done = true;
    rec.failed = ev.failed || hung;
    rec.error = hung ? "worker hung: the task's completion never arrived"
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
