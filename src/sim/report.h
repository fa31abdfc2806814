// Machine-wide statistics reporting.
//
// Aggregates what the simulator already tracks — per-SPE busy time,
// pipeline balance, DMA traffic and stalls, EIB utilization — into one
// table, so benches and examples can print the machine's view of an
// experiment next to its results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "trace/metrics.h"

namespace cellport::sim {

struct SpeReport {
  int id = 0;
  SimTime busy_ns = 0;
  double even_cycles = 0;
  double odd_cycles = 0;
  /// Dual-issue slack: cycles the shorter pipe sat idle at flush points.
  double slack_cycles = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t dma_bytes = 0;
  SimTime dma_stall_ns = 0;
  std::size_t ls_peak_bytes = 0;
};

/// Rollup of the cellguard runtime counters ("guard.*"). All zero — and
/// absent from the formatted report — on an unguarded run.
struct GuardReport {
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t quarantined_spes = 0;
  std::uint64_t ppe_fallbacks = 0;
  bool active() const {
    return (retries | timeouts | restarts | quarantined_spes |
            ppe_fallbacks) != 0;
  }
};

/// Rollup of the cellserve broker counters ("serve.*" and per-tenant
/// "serve.t<i>.*"). All zero — and absent from the formatted report —
/// when no broker ran on the machine.
struct ServeReport {
  struct Tenant {
    int id = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t ok = 0;
    std::uint64_t degraded = 0;
    std::uint64_t shed = 0;
    std::uint64_t deadline_missed = 0;
  };
  /// Per-priority-class latency summary from the broker's
  /// "serve.latency_ns.<class>" histograms. The p99.9 column is the
  /// tail the deadline scheduler is judged on — a class can look fine
  /// at p99 and still blow its deadline budget three nines out.
  struct ClassLatency {
    std::string name;
    std::uint64_t count = 0;
    double p50_ns = 0;
    double p99_ns = 0;
    double p99_9_ns = 0;
  };
  std::vector<ClassLatency> classes;
  std::vector<Tenant> tenants;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_missed = 0;
  bool active() const {
    return (admitted | rejected) != 0 || !tenants.empty();
  }
};

struct MachineReport {
  SimTime ppe_ns = 0;
  std::vector<SpeReport> spes;
  std::uint64_t eib_bytes = 0;
  std::uint64_t eib_transfers = 0;
  /// EIB utilization over the PPE's elapsed time, vs the 204.8 GB/s peak.
  double eib_utilization = 0;
  /// Sum of spe<i>.dma.list_elements. Zero on a run whose kernels only
  /// issued single-element transfers — called out explicitly in the
  /// formatted report so "no DMA lists" reads as a fact, not a gap.
  std::uint64_t dma_list_elements = 0;
  /// cellbalance: content-cache hits ("cache.hits") and cellfeed
  /// SPE-ingested images ("feed.images"). A cache-served run never
  /// touches the MFC, so the "DMA lists unused" hint is suppressed when
  /// every image came from the cache (cache_hits > 0, feed_images == 0)
  /// — that run has no transfers to batch, not a batching gap.
  std::uint64_t cache_hits = 0;
  std::uint64_t feed_images = 0;
  GuardReport guard;
  ServeReport serve;
};

/// Fills `metrics` with the machine's counter series under stable names:
/// "ppe.elapsed_ns", "ppe.io_ns", "spe<i>.busy_ns",
/// "spe<i>.pipe.{even_cycles,odd_cycles,slack_cycles}",
/// "spe<i>.dma.{transfers,bytes,list_elements,stall_ns}",
/// "spe<i>.ls.peak_bytes",
/// "spe<i>.mbox.{in_writes,in_reads}",
/// "eib.{bytes,transfers,utilization}".
/// Every series is a pure function of the simulated run. (The inbound
/// mailbox's functional high-water mark follows host thread order, so it
/// is not published; the mailbox invariants still check it.)
void collect_metrics(Machine& machine, trace::MetricsRegistry& metrics);

/// Snapshots the machine's counters. Implemented on top of
/// collect_metrics into machine.metrics(), so the report and the metric
/// series agree by construction.
MachineReport snapshot(Machine& machine);

/// Renders the snapshot as an aligned table.
std::string format_report(const MachineReport& report);

}  // namespace cellport::sim
