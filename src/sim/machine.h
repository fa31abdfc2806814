// The simulated Cell B.E. machine: one PPE + N SPEs + EIB.
//
// Functional execution is threaded: each SPE program runs on a host
// std::thread with its SpeContext installed thread-locally, blocking on
// real mailbox queues exactly where hardware channels stall. Simulated
// time is carried by message timestamps and is therefore independent of
// host scheduling.
//
// Threading contract: all PPE-side calls (mailbox writes/reads, spawn,
// join) must come from a single application thread, mirroring the paper's
// single-threaded PPE main application.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/eib.h"
#include "sim/scalar_context.h"
#include "sim/spe_context.h"
#include "trace/metrics.h"

namespace cellport::sim {

/// An SPE program image: the simulator equivalent of the SDK's
/// spe_program_handle_t. `code_bytes` reserves local-store space for the
/// kernel's text+bss, enforcing the paper's "kernels must fit in the LS"
/// constraint.
struct SpeProgram {
  std::string name;
  std::size_t code_bytes = 0;
  int (*entry)(std::uint64_t spe_id, std::uint64_t argv) = nullptr;
};

class Machine;

/// A running SPE thread (returned by Machine::spawn; the SDK's speid_t).
class SpeThread {
 public:
  SpeContext& ctx() { return ctx_; }
  /// The machine that owns this SPE thread (PPE-side mailbox operations
  /// charge this machine's PPE, not a process-global one).
  Machine& machine() { return machine_; }
  const SpeProgram& program() const { return program_; }
  /// True once the SPE program's main() has returned.
  bool finished() const;

 private:
  friend class Machine;
  SpeThread(Machine& m, SpeContext& ctx, SpeProgram program,
            std::uint64_t argv);

  Machine& machine_;
  SpeContext& ctx_;
  SpeProgram program_;
  std::thread thread_;
  std::shared_ptr<int> exit_code_ = std::make_shared<int>(0);
  std::shared_ptr<std::atomic<bool>> done_ =
      std::make_shared<std::atomic<bool>>(false);
  bool joined_ = false;
};

class Machine {
 public:
  struct Config {
    int num_spes = 8;
  };

  Machine() : Machine(Config{}) {}
  explicit Machine(Config cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  ScalarContext& ppe() { return ppe_; }
  SpeContext& spe(int i) { return *spes_.at(static_cast<std::size_t>(i)); }
  int num_spes() const { return static_cast<int>(spes_.size()); }
  Eib& eib() { return eib_; }

  /// Loads `program` onto an SPE and starts its thread. `spe_index` of -1
  /// picks the next unused SPE. Throws ConfigError when all SPEs are busy.
  SpeThread* spawn(const SpeProgram& program, std::uint64_t argv = 0,
                   int spe_index = -1);

  /// Joins the SPE thread (the program must have been told to exit) and
  /// returns its main()'s return value. Advances the PPE clock to the
  /// SPE's final simulated time only if the SPE finished later.
  int join(SpeThread* t);

  /// True while SPE `i` runs a program (spawn with that index would
  /// throw). The guard's retarget path uses this to skip occupied SPEs
  /// when picking a retry destination.
  bool spe_busy(int i) const {
    return spe_busy_.at(static_cast<std::size_t>(i));
  }

  /// The process-wide default machine used by the libspe-style free
  /// functions; the most recently constructed Machine is current.
  static Machine* current();

  // ---- observability (cellscope) ----
  /// The machine's metric series: per-SPE DMA/stall/mailbox/pipeline
  /// counters plus whatever the engines record. Snapshot series are
  /// (re)filled by sim::collect_metrics; histogram series accumulate
  /// during the run while a TraceSession is installed.
  trace::MetricsRegistry& metrics() { return metrics_; }
  /// Whether `name` is one of the per-SPE series a Machine registers only
  /// while a TraceSession is installed: `spe<i>.dma.wait_ns`,
  /// `spe<i>.mbox.wait_ns`, `spe<i>.kernel.invocations` and
  /// `spe<i>.ring.depth`. A metric set that must not depend on tracing,
  /// such as a bench artifact, leaves them out.
  static bool trace_only_series(std::string_view name);
  /// The pid this machine registered with the installed TraceSession
  /// (0 when tracing was off at construction).
  int trace_pid() const { return trace_pid_; }

 private:
  Eib eib_;
  ScalarContext ppe_;
  std::vector<std::unique_ptr<SpeContext>> spes_;
  std::vector<std::unique_ptr<SpeThread>> threads_;
  std::vector<bool> spe_busy_;
  trace::MetricsRegistry metrics_;
  int trace_pid_ = 0;
};

}  // namespace cellport::sim
