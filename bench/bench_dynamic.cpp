// Static vs dynamic kernel scheduling.
//
// The paper schedules kernels statically — one kernel resident per SPE —
// and notes that its scenario 1 "avoids the dynamic code switching"; it
// positions dynamic runtimes (CellSs, MPI microtasks) as follow-on work
// (Sections 1, 5.5, 6). This bench quantifies both sides with the
// TaskPool runtime:
//
//   1. one dynamic worker vs the static single-SPE schedule on one image
//      (isolates the code-switch overhead the paper avoids);
//   2. an 8-worker dynamic pool vs the static MultiSPE schedule on a
//      batch (dynamic scheduling overlaps kernels across images, which
//      the static per-image schedule cannot).
#include <cstdio>
#include <vector>

#include "harness.h"
#include "kernels/cc_kernel.h"
#include "kernels/cd_kernel.h"
#include "kernels/ch_kernel.h"
#include "kernels/eh_kernel.h"
#include "kernels/tx_kernel.h"
#include "marvel/task_graph.h"
#include "port/taskpool.h"

using namespace cellport;
using namespace cellport::bench;

namespace {

using marvel::ImageTasks;

/// Runs the whole batch through a TaskPool with `workers` workers;
/// returns the makespan and fills `stats`.
double dynamic_makespan(std::vector<ImageTasks>& images, int workers,
                        port::TaskPool::Stats* stats) {
  sim::Machine machine;
  port::TaskPool pool(machine, workers);
  for (auto& image : images) marvel::submit_tasks(pool, image);
  pool.wait_all();
  *stats = pool.stats();
  return stats->makespan_ns;
}

/// The static single-SPE-style schedule over the same prepared tasks:
/// five resident kernels, invoked sequentially (no code switches).
double static_makespan(std::vector<ImageTasks>& images) {
  sim::Machine machine;
  port::SPEInterface ch(kernels::ch_module(), 0);
  port::SPEInterface cc(kernels::cc_module(), 1);
  port::SPEInterface tx(kernels::tx_module(), 2);
  port::SPEInterface eh(kernels::eh_module(), 3);
  port::SPEInterface cd(kernels::cd_module(), 4);
  port::SPEInterface* ifaces[4] = {&ch, &cc, &tx, &eh};
  double t0 = machine.ppe().now_ns();
  for (auto& image : images) {
    for (int f = 0; f < 4; ++f) {
      ifaces[f]->SendAndWait(
          kernels::SPU_Run,
          image.features[static_cast<std::size_t>(f)].msg.ea());
      cd.SendAndWait(
          kernels::SPU_Run,
          image.features[static_cast<std::size_t>(f)].detect_msg.ea());
    }
  }
  return machine.ppe().now_ns() - t0;
}

/// Static MultiSPE-style schedule: extractions in parallel, detection on
/// a fifth SPE, image by image.
double static_parallel_makespan(std::vector<ImageTasks>& images) {
  sim::Machine machine;
  port::SPEInterface ch(kernels::ch_module(), 0);
  port::SPEInterface cc(kernels::cc_module(), 1);
  port::SPEInterface tx(kernels::tx_module(), 2);
  port::SPEInterface eh(kernels::eh_module(), 3);
  port::SPEInterface cd(kernels::cd_module(), 4);
  port::SPEInterface* ifaces[4] = {&ch, &cc, &tx, &eh};
  double t0 = machine.ppe().now_ns();
  for (auto& image : images) {
    for (int f = 0; f < 4; ++f) {
      ifaces[f]->Send(kernels::SPU_Run,
                      image.features[static_cast<std::size_t>(f)].msg.ea());
    }
    for (int f = 0; f < 4; ++f) ifaces[f]->Wait();
    for (int f = 0; f < 4; ++f) {
      cd.SendAndWait(
          kernels::SPU_Run,
          image.features[static_cast<std::size_t>(f)].detect_msg.ea());
    }
  }
  return machine.ppe().now_ns() - t0;
}

}  // namespace

int main() {
  std::printf("== Static vs dynamic kernel scheduling ==\n\n");
  learn::MarvelModels models = learn::make_marvel_models();

  // --- part 1: the code-switch cost the paper's scenario 1 avoids ---
  {
    marvel::Dataset one = marvel::make_dataset(1);
    auto tasks = marvel::build_task_graph(one.images, models);
    double t_static = static_makespan(tasks);
    port::TaskPool::Stats stats;
    double t_dyn = dynamic_makespan(tasks, 1, &stats);
    Table t("One image, sequential kernels: static residents vs one "
            "dynamic worker");
    t.header({"Schedule", "Makespan[ms]", "Code switches"});
    t.row({"static (5 resident SPEs)", Table::num(sim::ns_to_ms(t_static), 3),
           "0"});
    t.row({"dynamic (1 worker)", Table::num(sim::ns_to_ms(t_dyn), 3),
           std::to_string(stats.code_switches)});
    std::printf("%s\n", t.str().c_str());
    shape_check(t_dyn > t_static,
                "the dynamic worker pays for its code switches — the "
                "paper's scenario-1 rationale (\"avoids the dynamic code "
                "switching\")");
    // FIFO dispatch accidentally batches the four detection tasks (they
    // become ready after the extracts), so the worker switches 5 times,
    // not 8 — module-affinity scheduling would shave the rest.
    shape_check(stats.code_switches >= 5,
                "the lone worker reloads its kernel image on every module "
                "change (5 switches across 8 tasks)");
  }

  // --- part 2: dynamic wins on batches by overlapping across images ---
  {
    marvel::Dataset batch = marvel::make_dataset(8);
    auto tasks = marvel::build_task_graph(batch.images, models);
    double t_static_par = static_parallel_makespan(tasks);
    port::TaskPool::Stats stats;
    double t_dyn8 = dynamic_makespan(tasks, 8, &stats);
    Table t("Eight images: static MultiSPE vs an 8-worker dynamic pool");
    t.header({"Schedule", "Makespan[ms]", "Code switches", "Tasks"});
    t.row({"static MultiSPE (per image)",
           Table::num(sim::ns_to_ms(t_static_par), 2), "0", "64"});
    t.row({"dynamic pool (8 workers)", Table::num(sim::ns_to_ms(t_dyn8), 2),
           std::to_string(stats.code_switches),
           std::to_string(stats.tasks_run)});
    std::printf("%s\n", t.str().c_str());
    shape_check(t_dyn8 < t_static_par,
                "with enough independent work the dynamic pool overlaps "
                "kernels across images and beats the static per-image "
                "schedule despite its code switches — the trade the "
                "paper's Section 6 runtimes exploit");

    // Worker utilization under dynamic scheduling.
    Table u("Dynamic pool worker busy time");
    u.header({"Worker", "Busy[ms]"});
    for (std::size_t w = 0; w < stats.worker_busy_ns.size(); ++w) {
      u.row({std::to_string(w),
             Table::num(sim::ns_to_ms(stats.worker_busy_ns[w]), 2)});
    }
    std::printf("%s\n", u.str().c_str());
  }
  return shape_exit_code();
}
