// Execution context for reference (scalar C++) code on a modeled machine.
//
// Reference kernels are *functionally* executed on the host while their
// operation mix is charged to a ScalarContext; the context converts the mix
// into simulated time on its CoreModel. Running the same kernel under a
// Desktop, Laptop, or PPE context reproduces the paper's cross-machine
// comparisons from a single implementation.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/calibration.h"
#include "sim/core_model.h"
#include "sim/cost_meter.h"
#include "sim/invariants.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace cellport::sim {

class ScalarContext {
 public:
  explicit ScalarContext(CoreModel core) : core_(std::move(core)) {}

  const CoreModel& core() const { return core_; }
  SimTime now_ns() const { return clock_ns_; }
  const CostMeter& meter() const { return meter_; }

  /// Charges n operations of class c and advances the clock.
  void charge(OpClass c, std::uint64_t n = 1) {
    meter_.charge(c, n);
    clock_ns_ += core_.ns_for(c, n);
  }

  class ChargeRun;

  /// Charges a streaming I/O transfer (disk read / image decode input).
  /// Time = per-file latency (if `open_file`) + bytes at disk bandwidth.
  /// By default the machine's I/O factor applies (per-access CPU overhead
  /// shows in the per-image path — Section 5.2's 1.2x/1.4x preprocessing
  /// slowdowns); pass scaled=false for bulk sequential reads that
  /// saturate the disk regardless of CPU (the one-time model-library
  /// load, which the paper measures as "about the same" on all three
  /// machines).
  void charge_io(std::uint64_t bytes, bool open_file = false,
                 bool scaled = true) {
    SimTime t = static_cast<double>(bytes) / calib::kDiskBandwidthBytesPerNs;
    if (open_file) t += calib::kFileOpenLatencyNs;
    if (scaled) t *= core_.io_factor;
    clock_ns_ += t;
    io_ns_ += t;
  }

  /// Advances the clock directly (used by the runtime for protocol costs).
  void advance_ns(SimTime ns) {
    // Simulated time only moves forward (see SpeContext::advance_ns).
    if (ns < 0) {
      report_invariant("clock.monotone", "scalar-context",
                       "advance_ns by negative delta " +
                           std::to_string(ns));
      return;
    }
    clock_ns_ += ns;
  }

  /// Synchronizes with an incoming message timestamp.
  void sync_to(SimTime ts) {
    if (ts > clock_ns_) clock_ns_ = ts;
  }

  /// Total simulated I/O time charged so far.
  SimTime io_ns() const { return io_ns_; }

  // ---- observability (cellscope) ----
  /// The timeline lane this context's events land on; null when no
  /// TraceSession is installed (hooks then cost one pointer test).
  void set_trace_track(trace::TraceTrack* track) { trace_track_ = track; }
  trace::TraceTrack* trace_track() { return trace_track_; }
  bool trace_on() const {
    return trace_track_ != nullptr && trace_track_->enabled();
  }

  void reset() {
    clock_ns_ = 0;
    io_ns_ = 0;
    meter_.reset();
  }

 private:
  CoreModel core_;
  SimTime clock_ns_ = 0;
  SimTime io_ns_ = 0;
  CostMeter meter_;
  trace::TraceTrack* trace_track_ = nullptr;
};

/// A scoped run of charges whose clock and counts live in locals, so a
/// hot loop does not round-trip them through memory. Each charge makes
/// the same `clock += core.ns_for(c, n)` add as ScalarContext::charge,
/// in the same order, so the running double sum ends with the same
/// bits. Both are written back when the run ends, during exception
/// unwinding too. Nothing else may charge the context while a run is
/// open. A run over a null context charges nothing.
class ScalarContext::ChargeRun {
 public:
  /// One charge's class, count and cost. ns_for is pure, so a charge
  /// repeated in a loop can be priced once.
  struct Charge {
    OpClass c;
    std::uint64_t n;
    SimTime ns;
  };

  explicit ChargeRun(ScalarContext* ctx)
      : ctx_(ctx), clock_ns_(ctx != nullptr ? ctx->clock_ns_ : 0) {}
  ~ChargeRun() {
    if (ctx_ == nullptr) return;
    ctx_->clock_ns_ = clock_ns_;
    ctx_->meter_ += meter_;
  }
  ChargeRun(const ChargeRun&) = delete;
  ChargeRun& operator=(const ChargeRun&) = delete;

  Charge fixed(OpClass c, std::uint64_t n) const {
    return {c, n, ctx_ != nullptr ? ctx_->core_.ns_for(c, n) : 0};
  }
  void charge(const Charge& k) {
    meter_.charge(k.c, k.n);
    clock_ns_ += k.ns;
  }
  void charge(OpClass c, std::uint64_t n = 1) { charge(fixed(c, n)); }

 private:
  ScalarContext* ctx_;
  SimTime clock_ns_;
  CostMeter meter_;
};

}  // namespace cellport::sim
