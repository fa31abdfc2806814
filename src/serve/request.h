// cellserve: multi-tenant request types for the broker in front of
// CellEngine/StreamEngine.
//
// A ServeRequest is one tenant's analysis job: an encoded image plus a
// simulated arrival time, a priority class, and an absolute completion
// deadline. The broker admits it against bounded per-tenant queues and
// a global budget, schedules it earliest-deadline-first within its
// priority class (weighted round-robin across tenants), and terminates
// it in exactly one of {ok, degraded, shed, deadline_missed} — or
// rejects it at enqueue when its tenant's queue is full.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "img/codec.h"
#include "marvel/result.h"
#include "sim/time.h"

namespace cellport::serve {

/// Priority classes, highest first. Scheduling is strict across classes
/// (a kHigh request never waits behind kLow work in the same cycle);
/// overload shedding walks the classes from the bottom up and never
/// touches kHigh.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kNumClasses = 3;

inline const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "?";
}

/// Request lifecycle. kQueued is the only non-terminal state; every
/// ADMITTED request ends in exactly one of {kOk, kDegraded, kShed,
/// kDeadlineMissed} (the serve.* accounting invariant cellcheck
/// enforces). kRejected means admission refused the request — it never
/// entered a queue and never counts as admitted.
enum class ServeStatus : std::uint8_t {
  kQueued,
  kOk,
  kDegraded,
  kShed,
  kDeadlineMissed,
  kRejected,
};

inline const char* status_name(ServeStatus s) {
  switch (s) {
    case ServeStatus::kQueued: return "queued";
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kDegraded: return "degraded";
    case ServeStatus::kShed: return "shed";
    case ServeStatus::kDeadlineMissed: return "deadline_missed";
    case ServeStatus::kRejected: return "rejected";
  }
  return "?";
}

inline bool is_terminal(ServeStatus s) {
  return s != ServeStatus::kQueued;
}

struct TenantConfig {
  std::string name;
  /// Weighted-round-robin share within each priority class: a tenant
  /// with weight 2 gets two consecutive picks per rotation where a
  /// weight-1 tenant gets one. Must be >= 1.
  int weight = 1;
  /// Bounded queue: admission rejects the tenant's own requests beyond
  /// this depth (back-pressure stays scoped to the noisy tenant).
  std::size_t queue_cap = 16;
};

struct ServeRequest {
  int tenant = 0;
  Priority priority = Priority::kNormal;
  img::SicEncoded image;
  /// Absolute simulated arrival time; requests whose arrival is in the
  /// broker's past are admitted immediately.
  sim::SimTime arrival_ns = 0;
  /// Absolute completion deadline; 0 = arrival + the config default.
  sim::SimTime deadline_ns = 0;
};

struct ServeResponse {
  ServeStatus status = ServeStatus::kQueued;
  int tenant = 0;
  Priority priority = Priority::kNormal;
  /// Degrade-ladder level the request was served at (0 = full service,
  /// 1 = concept clamp, 2 = minimal detect). Shed/expired requests keep
  /// the level the broker was at when they terminated.
  int degrade_level = 0;
  /// True when `result` holds a real analysis (ok, degraded, or a
  /// deadline miss that was still served to completion).
  bool served = false;
  marvel::AnalysisResult result;
  sim::SimTime arrival_ns = 0;
  /// Ring dispatch time of the cycle that served it (0 = never
  /// dispatched: shed or expired in the queue).
  sim::SimTime start_ns = 0;
  /// When the terminal status landed.
  sim::SimTime done_ns = 0;
  sim::SimTime queue_wait_ns() const {
    return (start_ns > arrival_ns ? start_ns : done_ns) - arrival_ns;
  }
  sim::SimTime latency_ns() const { return done_ns - arrival_ns; }
};

struct ServeConfig {
  std::vector<TenantConfig> tenants;
  /// Ring window per service cycle (StreamOptions.batch downstream).
  int batch = 4;
  /// Windows a single cycle may dispatch back-to-back (they pipeline
  /// inside one streaming run). Larger values trade scheduling
  /// granularity for throughput; 1x-load bursts want the queue drained
  /// in one cycle.
  int cycle_windows = 4;
  /// Global queued-request budget across all tenants on a healthy
  /// machine. Quarantined SPEs shrink the effective budget
  /// proportionally; excess queue is shed lowest-priority-first.
  std::size_t global_budget = 32;
  /// Degrade ladder thresholds on queue pressure p = queued / effective
  /// budget: level 1 (score half the concept models per feature) at
  /// p >= degrade_concepts_at, level 2 (minimal detect, one model per
  /// feature) at p >= degrade_minimal_at. Shedding starts only when the
  /// budget itself is exhausted — the ladder always engages first.
  double degrade_concepts_at = 0.5;
  double degrade_minimal_at = 0.85;
  /// Deadline for requests that do not carry their own, relative to
  /// arrival.
  sim::SimTime default_deadline_ns = 80'000'000;  // 80 ms
};

/// Per-tenant terminal-status tallies (the serve.t<i>.* counters).
struct TenantStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
};

struct ServeStats {
  std::vector<TenantStats> tenants;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t cycles = 0;
  /// Peak degrade-ladder level any cycle ran at.
  int max_degrade_level = 0;
};

}  // namespace cellport::serve
