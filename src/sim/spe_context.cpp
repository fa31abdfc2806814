#include "sim/spe_context.h"

#include <algorithm>

namespace cellport::sim {

void SpeContext::flush_pipes() {
  if (even_pending_ == 0 && odd_pending_ == 0) return;
  double issued = std::max(even_pending_, odd_pending_);
  pipe_stats_.even_cycles += even_pending_;
  pipe_stats_.odd_cycles += odd_pending_;
  pipe_stats_.slack_cycles += issued - std::min(even_pending_, odd_pending_);
  SimTime ns = issued / calib::kSpuFreqGhz;
  clock_ns_ += ns;
  busy_ns_ += ns;
  even_pending_ = 0;
  odd_pending_ = 0;
}

SimTime SpeContext::now_ns() {
  flush_pipes();
  return clock_ns_;
}

void SpeContext::sync_to(SimTime ts) {
  flush_pipes();
  if (ts > clock_ns_) clock_ns_ = ts;
}

std::uint64_t SpeContext::read_in_mbox() {
  flush_pipes();
  SimTime t0 = clock_ns_;
  Mailbox::Entry e = in_mbox_.read();
  sync_to(e.ts);
  advance_ns(calib::kSpuChannelCostNs);
  if (trace_on()) {
    // The SPU sat on the blocking channel from t0 until the entry's
    // delivery timestamp; both ends are simulated, so the span (and the
    // stall histogram) is deterministic.
    SimTime stall = std::max(0.0, e.ts - t0);
    hooks_.track->complete(trace::Category::kMailbox, "mbox_read", t0,
                           clock_ns_, "stall_ns",
                           static_cast<std::uint64_t>(stall));
    if (hooks_.mbox_wait_ns != nullptr) hooks_.mbox_wait_ns->record(stall);
  }
  return e.value;
}

void SpeContext::write_out_mbox(std::uint64_t v) {
  flush_pipes();
  advance_ns(calib::kSpuChannelCostNs);
  if (trace_on()) {
    hooks_.track->instant(trace::Category::kMailbox, "mbox_write",
                          clock_ns_);
  }
  out_mbox_.write(v, completion_ts(clock_ns_ + calib::kMailboxLatencyNs));
}

void SpeContext::write_out_intr_mbox(std::uint64_t v) {
  flush_pipes();
  advance_ns(calib::kSpuChannelCostNs);
  if (trace_on()) {
    hooks_.track->instant(trace::Category::kMailbox, "mbox_write_intr",
                          clock_ns_);
  }
  out_intr_mbox_.write(v,
                       completion_ts(clock_ns_ + calib::kMailboxLatencyNs));
}

std::uint32_t SpeContext::read_signal(int which) {
  flush_pipes();
  SimTime t0 = clock_ns_;
  SignalRegister& reg = which == 1 ? signal1_ : signal2_;
  SignalRegister::Value v = reg.read();
  sync_to(v.ts);
  advance_ns(calib::kSpuChannelCostNs);
  if (trace_on()) {
    hooks_.track->complete(trace::Category::kMailbox,
                           which == 1 ? "signal1_read" : "signal2_read", t0,
                           clock_ns_);
  }
  return v.bits;
}

void SpeContext::inject_fault(const FaultInjection& f) {
  fault_ = f;
  completions_seen_ = 0;
  dma_waits_seen_ = 0;
  dma_cmds_seen_ = 0;
  hang_fired_ = false;
  injection_fired_ = false;
}

void SpeContext::clear_fault_injection() { inject_fault(FaultInjection{}); }

void SpeContext::fault_restart() {
  if (fault_.clears_on_restart) {
    fault_ = FaultInjection{};
  }
  completions_seen_ = 0;
  dma_waits_seen_ = 0;
  dma_cmds_seen_ = 0;
  hang_fired_ = false;
}

SimTime SpeContext::completion_ts(SimTime base) {
  if (fault_.hang_after < 0) return base;
  int n = completions_seen_++;
  if (fault_.hang_sticky ? (hang_fired_ || n >= fault_.hang_after)
                         : n == fault_.hang_after) {
    hang_fired_ = true;
    injection_fired_ = true;
    return kNeverNs;
  }
  return base;
}

SimTime SpeContext::consume_dma_stall() {
  if (fault_.slow_after < 0) return 0;
  if (dma_waits_seen_++ != fault_.slow_after) return 0;
  injection_fired_ = true;
  return fault_.slow_ns;
}

bool SpeContext::consume_dma_error() {
  if (fault_.dma_error_after < 0) return false;
  if (dma_cmds_seen_++ != fault_.dma_error_after) return false;
  injection_fired_ = true;
  return true;
}

void SpeContext::reset() {
  clock_ns_ = 0;
  busy_ns_ = 0;
  even_pending_ = 0;
  odd_pending_ = 0;
  pipe_stats_ = PipeStats{};
  in_mbox_.clear();
  out_mbox_.clear();
  out_intr_mbox_.clear();
  signal1_.clear();
  signal2_.clear();
  defer_out_tag_ = -1;
  ls_.release_retained();
  ls_.reset_data();
  mfc_.reset();
  clear_fault_injection();
}

}  // namespace cellport::sim
