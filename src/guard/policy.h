// cellguard retry policy: plain data, read by SpeHealth and
// GuardedInterface and carried by the engine's GuardPolicy.
#pragma once

#include "sim/time.h"

namespace cellport::guard {

/// How a guarded call (GuardedInterface) responds to a fault or a missed
/// deadline. All durations are simulated nanoseconds; enforcement is
/// deterministic and replayable.
struct RetryPolicy {
  /// Total tries per call, first attempt included.
  int max_attempts = 3;
  /// Exponential backoff charged to the PPE before retry k:
  /// backoff_base_ns * 2^(k-1).
  sim::SimTime backoff_base_ns = 100e3;  // 0.1 ms
  /// Per-attempt deadline; 0 disables deadlines (faults still retry,
  /// hangs are not detected).
  sim::SimTime deadline_ns = 0;
  /// Consecutive faults on one SPE before it is quarantined. Its context
  /// is restarted once when the threshold is first hit; a second strike
  /// quarantines it for good.
  int quarantine_after = 2;
};

/// CellEngine-level switch: picks the kind of lane the engine builds —
/// guarded lanes when enabled, plain lanes (a kernel fault throws) by
/// default. The schedules are the same either way.
struct GuardPolicy {
  bool enabled = false;
  RetryPolicy retry;
};

}  // namespace cellport::guard
