// One Synergistic Processing Element: SPU pipelines + LS + MFC + mailboxes.
//
// Timing model: the SPU dual-issues one instruction per cycle on each of an
// even (arithmetic) and an odd (load/store/shuffle/branch) pipeline. The
// SPU SIMD emulation layer (src/spu) charges each intrinsic to a pipeline;
// at every synchronization point (channel access, DMA wait, kernel entry /
// exit) the accumulated pipeline work is flushed into the context clock as
// max(even, odd) cycles — modeling the overlap that dual issue provides to
// well-scheduled SPU code.
#pragma once

#include <cstdint>
#include <string>

#include "sim/calibration.h"
#include "sim/invariants.h"
#include "sim/local_store.h"
#include "sim/mailbox.h"
#include "sim/mfc.h"
#include "sim/signal.h"
#include "sim/time.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace cellport::sim {

/// Scheduled misbehavior for one SPE (cellguard's fault model). All
/// triggers count deterministic simulated events, never host time, so an
/// injected fault replays identically under cellcheck. Install before the
/// SPE program runs (or while it idles in its dispatcher loop): the
/// counters are touched only from the SPE thread.
struct FaultInjection {
  /// Fire on the Nth (0-based) outbound completion: the entry is written
  /// functionally but stamped kNeverNs — the SPE "stops responding".
  int hang_after = -1;
  /// Sticky hang: every later completion is also stamped kNeverNs until
  /// the context is restarted. One-shot otherwise.
  bool hang_sticky = true;
  /// Stall the Nth DMA tag-status wait by an extra `slow_ns`.
  int slow_after = -1;
  SimTime slow_ns = 0;
  /// Make the Nth DMA command throw a DmaError once (transient fault).
  int dma_error_after = -1;
  /// Whether fault_restart() (the guard's one context restart before
  /// quarantine) clears this injection. False models a genuinely broken
  /// SPE that a restart cannot heal.
  bool clears_on_restart = true;
};

class SpeContext {
 public:
  SpeContext(int id, Eib& eib)
      : id_(id),
        in_mbox_("spe" + std::to_string(id) + ".in", 4),
        out_mbox_("spe" + std::to_string(id) + ".out", 1),
        out_intr_mbox_("spe" + std::to_string(id) + ".out_intr", 1),
        mfc_(*this, eib) {}

  SpeContext(const SpeContext&) = delete;
  SpeContext& operator=(const SpeContext&) = delete;

  int id() const { return id_; }
  LocalStore& ls() { return ls_; }
  Mfc& mfc() { return mfc_; }
  Mailbox& in_mbox() { return in_mbox_; }
  Mailbox& out_mbox() { return out_mbox_; }
  Mailbox& out_intr_mbox() { return out_intr_mbox_; }
  SignalRegister& signal1() { return signal1_; }
  SignalRegister& signal2() { return signal2_; }

  // ---- pipeline accounting (called by the spu emulation layer) ----
  void charge_even(double cycles = 1.0) { even_pending_ += cycles; }
  void charge_odd(double cycles = 1.0) { odd_pending_ += cycles; }
  /// Double-precision op: 2 results every 7 cycles on the even pipe.
  void charge_double(double ops = 1.0) {
    even_pending_ += ops * calib::kSpuDoubleCyclesPerOp;
  }
  /// A branch whose direction the (hint-only) SPU got wrong.
  void charge_branch_miss(double n = 1.0) {
    odd_pending_ += n * calib::kSpuBranchMissCycles;
  }

  /// Folds pending pipeline work into the clock: dual issue lets the two
  /// pipelines overlap, so elapsed cycles = max(even, odd).
  void flush_pipes();

  // ---- clock ----
  SimTime now_ns();  // flushes pipes first
  /// Non-mutating clock read (excludes pending pipeline work). Used by
  /// trace hooks, which must never trigger a flush of their own: a flush
  /// at a new point would regroup dual-issue accounting and perturb the
  /// timing model.
  SimTime peek_ns() const { return clock_ns_; }
  void sync_to(SimTime ts);
  void advance_ns(SimTime ns) {
    // Simulated time only moves forward; a negative delta is an
    // accounting bug in the caller, not a legal rewind.
    if (ns < 0) {
      report_invariant("clock.monotone", "spe" + std::to_string(id_),
                       "advance_ns by negative delta " +
                           std::to_string(ns));
      return;
    }
    clock_ns_ += ns;
  }

  // ---- channel operations (SPU side of the mailboxes/signals) ----
  std::uint64_t read_in_mbox();
  void write_out_mbox(std::uint64_t v);
  void write_out_intr_mbox(std::uint64_t v);
  std::size_t in_mbox_count() const { return in_mbox_.count(); }
  /// Destructive blocking read of signal register 1 or 2.
  std::uint32_t read_signal(int which);

  // ---- lifetime / statistics ----
  struct PipeStats {
    double even_cycles = 0;
    double odd_cycles = 0;
    /// Cycles lost to the shorter pipe at flush points (dual-issue slack).
    double slack_cycles = 0;
  };
  const PipeStats& pipe_stats() const { return pipe_stats_; }
  /// Simulated time the SPU was busy (excludes idle waiting on mailbox).
  SimTime busy_ns() const { return busy_ns_; }

  // ---- observability (cellscope) ----
  /// Pointers into the machine's TraceSession/MetricsRegistry, installed
  /// by Machine construction; all null when tracing is off, in which case
  /// every hook is one pointer test.
  struct TraceHooks {
    trace::TraceTrack* track = nullptr;
    trace::Histogram* dma_stall_ns = nullptr;   // per tag-status wait
    trace::Histogram* mbox_wait_ns = nullptr;   // inbound-read stall
    trace::Counter* kernel_invocations = nullptr;
    trace::Histogram* ring_depth = nullptr;     // commands per ring drain
  };
  void set_trace(const TraceHooks& hooks) { hooks_ = hooks; }
  const TraceHooks& trace_hooks() const { return hooks_; }
  bool trace_on() const {
    return hooks_.track != nullptr && hooks_.track->enabled();
  }

  // ---- fault injection (cellguard) ----
  /// Installs a fault schedule. Event counters restart from zero.
  void inject_fault(const FaultInjection& f);
  void clear_fault_injection();
  const FaultInjection& fault_injection() const { return fault_; }
  /// A context restart (the guard restarts a misbehaving SPE once before
  /// quarantining it): clears the injection when `clears_on_restart`,
  /// always resets the event counters. The simulated clock is untouched —
  /// a restart does not travel in time.
  void fault_restart();
  /// Applies the hang schedule to an outbound completion's delivery
  /// timestamp: returns `base`, or kNeverNs when this completion is the
  /// hang trigger. Used by the mailbox write path and by TaskPool's
  /// host-side completion events (which bypass mailboxes).
  SimTime completion_ts(SimTime base);
  /// Extra stall for the current DMA tag-status wait (0 normally).
  SimTime consume_dma_stall();
  /// True when the current DMA command should fail (one-shot).
  bool consume_dma_error();
  /// True once any part of the injected schedule has actually triggered
  /// (a completion hung, a stall applied, a DMA command failed). Sticky
  /// across fault_restart(); cleared by a new inject_fault(). Lets a
  /// checker distinguish "the runtime recovered silently" from "the
  /// schedule never fired" — e.g. a streamed run whose whole window
  /// retires behind one doorbell can produce fewer completions than the
  /// scheduled trigger index.
  bool fault_injection_fired() const { return injection_fired_; }

  // ---- deferred kernel output (cellstream) ----
  /// When >= 0, kernels::emit_result() issues its output DMA on this tag
  /// and returns without waiting; the ring dispatcher fences the tag once
  /// per drained batch, overlapping each request's output transfer with
  /// the next request's input DMA. -1 (default) keeps the legacy per-call
  /// put + tag wait.
  int defer_out_tag() const { return defer_out_tag_; }
  void set_defer_out_tag(int tag) { defer_out_tag_ = tag; }

  void reset();

 private:
  int id_;
  LocalStore ls_;
  Mailbox in_mbox_;
  Mailbox out_mbox_;
  Mailbox out_intr_mbox_;
  SignalRegister signal1_;
  SignalRegister signal2_;
  Mfc mfc_;

  SimTime clock_ns_ = 0;
  SimTime busy_ns_ = 0;
  double even_pending_ = 0;
  double odd_pending_ = 0;
  PipeStats pipe_stats_;
  TraceHooks hooks_;

  int defer_out_tag_ = -1;

  FaultInjection fault_;
  int completions_seen_ = 0;
  int dma_waits_seen_ = 0;
  int dma_cmds_seen_ = 0;
  bool hang_fired_ = false;
  bool injection_fired_ = false;
};

namespace detail {
// Inline and constant-initialized so that every spu::charge_* compiles to
// a TLS load, a null test and an add, with no call and no TLS wrapper.
inline constinit thread_local SpeContext* g_current_spe = nullptr;
}  // namespace detail

/// Thread-local "current SPE" used by the spu_mfcio / spu intrinsic
/// facades so SPE kernel code can be written in the flat C style of the
/// paper's Listing 1. Null outside an SPE thread.
inline SpeContext* current_spe() { return detail::g_current_spe; }
inline void set_current_spe(SpeContext* ctx) { detail::g_current_spe = ctx; }

}  // namespace cellport::sim
