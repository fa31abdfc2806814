#include "sim/machine.h"

#include <string_view>

#include "support/error.h"

namespace cellport::sim {

namespace {
// Thread-local so independent Machines on different host threads (the
// cellcheck --jobs runner) never observe each other. Single-threaded
// callers see the historical process-wide behavior.
thread_local Machine* g_current_machine = nullptr;

// Names of the per-SPE series registered only under a TraceSession,
// after the `spe<i>` prefix.
constexpr std::string_view kDmaWaitNs = ".dma.wait_ns";
constexpr std::string_view kMboxWaitNs = ".mbox.wait_ns";
constexpr std::string_view kKernelInvocations = ".kernel.invocations";
constexpr std::string_view kRingDepth = ".ring.depth";
}

Machine* Machine::current() { return g_current_machine; }

bool Machine::trace_only_series(std::string_view name) {
  if (!name.starts_with("spe")) return false;
  std::size_t i = 3;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
  if (i == 3) return false;
  const std::string_view rest = name.substr(i);
  return rest == kDmaWaitNs || rest == kMboxWaitNs ||
         rest == kKernelInvocations || rest == kRingDepth;
}

SpeThread::SpeThread(Machine& m, SpeContext& ctx, SpeProgram program,
                     std::uint64_t argv)
    : machine_(m), ctx_(ctx), program_(std::move(program)) {
  ctx_.ls().load_code(program_.code_bytes);
  auto entry = program_.entry;
  auto* context = &ctx_;
  auto exit_code = exit_code_;
  auto done = done_;
  std::uint64_t id = static_cast<std::uint64_t>(ctx_.id());
  // The SPE thread inherits the spawning thread's invariant channel so
  // violations it reports land in the owning scenario's channel, not a
  // sibling's, when several Machines run on different host threads.
  InvariantChannel* channel = &InvariantChannel::instance();
  thread_ = std::thread(
      [entry, context, argv, id, exit_code, done, channel] {
        set_thread_invariant_channel(channel);
        set_current_spe(context);
        *exit_code = entry(id, argv);
        set_current_spe(nullptr);
        done->store(true, std::memory_order_release);
      });
}

bool SpeThread::finished() const {
  return done_->load(std::memory_order_acquire);
}

Machine::Machine(Config cfg) : ppe_(cell_ppe()) {
  if (cfg.num_spes < 1 || cfg.num_spes > 8) {
    throw cellport::ConfigError(
        "a Cell B.E. has 1..8 usable SPEs, requested " +
        std::to_string(cfg.num_spes));
  }
  for (int i = 0; i < cfg.num_spes; ++i)
    spes_.push_back(std::make_unique<SpeContext>(i, eib_));
  spe_busy_.assign(static_cast<std::size_t>(cfg.num_spes), false);
  g_current_machine = this;

  // Register with an installed TraceSession: one pid per machine, one
  // track per context. Track and metric objects are created up front so
  // hot-path hooks are a pointer test plus an append — no map lookups,
  // no locks (each track has a single writer thread).
  if (trace::TraceSession* ts = trace::TraceSession::current()) {
    trace_pid_ = ts->register_machine(
        "cell[" + std::to_string(cfg.num_spes) + " SPE]");
    ppe_.set_trace_track(ts->make_track(trace_pid_, "PPE"));
    for (int i = 0; i < cfg.num_spes; ++i) {
      std::string prefix = "spe" + std::to_string(i);
      SpeContext::TraceHooks hooks;
      hooks.track = ts->make_track(trace_pid_, "SPE" + std::to_string(i));
      hooks.dma_stall_ns =
          &metrics_.histogram(prefix + std::string(kDmaWaitNs));
      hooks.mbox_wait_ns =
          &metrics_.histogram(prefix + std::string(kMboxWaitNs));
      hooks.kernel_invocations =
          &metrics_.counter(prefix + std::string(kKernelInvocations));
      hooks.ring_depth =
          &metrics_.histogram(prefix + std::string(kRingDepth));
      spes_[static_cast<std::size_t>(i)]->set_trace(hooks);
    }
  }
}

Machine::~Machine() {
  for (auto& t : threads_) {
    if (!t->joined_ && t->thread_.joinable()) t->thread_.join();
  }
  if (g_current_machine == this) g_current_machine = nullptr;
}

SpeThread* Machine::spawn(const SpeProgram& program, std::uint64_t argv,
                          int spe_index) {
  if (program.entry == nullptr) {
    throw cellport::ConfigError("SPE program '" + program.name +
                                "' has no entry point");
  }
  if (spe_index < 0) {
    for (std::size_t i = 0; i < spe_busy_.size(); ++i) {
      if (!spe_busy_[i]) {
        spe_index = static_cast<int>(i);
        break;
      }
    }
    if (spe_index < 0) {
      throw cellport::ConfigError("all " + std::to_string(num_spes()) +
                                  " SPEs are busy; cannot load '" +
                                  program.name + "'");
    }
  }
  auto idx = static_cast<std::size_t>(spe_index);
  if (idx >= spes_.size()) {
    throw cellport::ConfigError("SPE index " + std::to_string(spe_index) +
                                " out of range");
  }
  if (spe_busy_[idx]) {
    throw cellport::ConfigError("SPE " + std::to_string(spe_index) +
                                " already runs a program");
  }
  spe_busy_[idx] = true;
  if (ppe_.trace_on()) {
    ppe_.trace_track()->instant(trace::Category::kRuntime,
                                "spawn:" + program.name, ppe_.now_ns(),
                                "spe", static_cast<std::uint64_t>(spe_index));
  }
  threads_.push_back(std::unique_ptr<SpeThread>(
      new SpeThread(*this, *spes_[idx], program, argv)));
  return threads_.back().get();
}

int Machine::join(SpeThread* t) {
  if (!t->joined_) {
    t->thread_.join();
    t->joined_ = true;
    spe_busy_[static_cast<std::size_t>(t->ctx_.id())] = false;
    if (ppe_.trace_on()) {
      ppe_.trace_track()->instant(
          trace::Category::kRuntime, "join:" + t->program_.name,
          ppe_.now_ns(), "spe",
          static_cast<std::uint64_t>(t->ctx_.id()));
    }
  }
  return *t->exit_code_;
}

}  // namespace cellport::sim
