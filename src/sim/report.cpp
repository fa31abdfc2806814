#include "sim/report.h"

#include <algorithm>

#include "support/table.h"

namespace cellport::sim {

namespace {

/// Reads a counter without creating it — snapshot() must not add guard
/// series to the registry of a machine that never ran guarded.
std::uint64_t counter_or_zero(const trace::MetricsRegistry& m,
                              const std::string& name) {
  const auto& counters = m.counters();
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second->value();
}

}  // namespace

void collect_metrics(Machine& machine, trace::MetricsRegistry& metrics) {
  SimTime ppe_ns = machine.ppe().now_ns();
  metrics.gauge("ppe.elapsed_ns").set(ppe_ns);
  metrics.gauge("ppe.io_ns").set(machine.ppe().io_ns());
  for (int i = 0; i < machine.num_spes(); ++i) {
    SpeContext& spe = machine.spe(i);
    const std::string p = "spe" + std::to_string(i);
    metrics.gauge(p + ".busy_ns").set(spe.busy_ns());
    metrics.gauge(p + ".pipe.even_cycles").set(spe.pipe_stats().even_cycles);
    metrics.gauge(p + ".pipe.odd_cycles").set(spe.pipe_stats().odd_cycles);
    metrics.gauge(p + ".pipe.slack_cycles")
        .set(spe.pipe_stats().slack_cycles);
    // cellfuse: dual-issue balance as a share — the fraction of the
    // busier pipe's cycles the shorter pipe sat idle. The fused kernel's
    // even/odd rebalancing is judged by this gauge (bench_latency pins
    // it against the per-feature baseline).
    const double issued = std::max(spe.pipe_stats().even_cycles,
                                   spe.pipe_stats().odd_cycles);
    metrics.gauge(p + ".pipe.slack_share")
        .set(issued > 0 ? spe.pipe_stats().slack_cycles / issued : 0.0);
    metrics.gauge(p + ".dma.transfers")
        .set(static_cast<double>(spe.mfc().stats().transfers));
    metrics.gauge(p + ".dma.bytes")
        .set(static_cast<double>(spe.mfc().stats().bytes));
    metrics.gauge(p + ".dma.list_elements")
        .set(static_cast<double>(spe.mfc().stats().list_elements));
    metrics.gauge(p + ".dma.stall_ns").set(spe.mfc().stats().stall_ns);
    metrics.gauge(p + ".ls.peak_bytes")
        .set(static_cast<double>(spe.ls().peak_bytes()));
    Mailbox::Stats mb = spe.in_mbox().stats();
    metrics.gauge(p + ".mbox.in_writes")
        .set(static_cast<double>(mb.writes));
    metrics.gauge(p + ".mbox.in_reads").set(static_cast<double>(mb.reads));
  }
  metrics.gauge("eib.bytes")
      .set(static_cast<double>(machine.eib().total_bytes()));
  metrics.gauge("eib.transfers")
      .set(static_cast<double>(machine.eib().total_transfers()));
  metrics.gauge("eib.utilization").set(machine.eib().utilization(ppe_ns));
}

MachineReport snapshot(Machine& machine) {
  trace::MetricsRegistry& m = machine.metrics();
  collect_metrics(machine, m);
  MachineReport r;
  r.ppe_ns = m.gauge("ppe.elapsed_ns").value();
  for (int i = 0; i < machine.num_spes(); ++i) {
    const std::string p = "spe" + std::to_string(i);
    SpeReport s;
    s.id = i;
    s.busy_ns = m.gauge(p + ".busy_ns").value();
    s.even_cycles = m.gauge(p + ".pipe.even_cycles").value();
    s.odd_cycles = m.gauge(p + ".pipe.odd_cycles").value();
    s.slack_cycles = m.gauge(p + ".pipe.slack_cycles").value();
    s.dma_transfers =
        static_cast<std::uint64_t>(m.gauge(p + ".dma.transfers").value());
    s.dma_bytes =
        static_cast<std::uint64_t>(m.gauge(p + ".dma.bytes").value());
    r.dma_list_elements += static_cast<std::uint64_t>(
        m.gauge(p + ".dma.list_elements").value());
    s.dma_stall_ns = m.gauge(p + ".dma.stall_ns").value();
    s.ls_peak_bytes =
        static_cast<std::size_t>(m.gauge(p + ".ls.peak_bytes").value());
    r.spes.push_back(s);
  }
  r.eib_bytes = static_cast<std::uint64_t>(m.gauge("eib.bytes").value());
  r.eib_transfers =
      static_cast<std::uint64_t>(m.gauge("eib.transfers").value());
  r.eib_utilization = m.gauge("eib.utilization").value();
  r.guard.retries = counter_or_zero(m, "guard.retries");
  r.guard.timeouts = counter_or_zero(m, "guard.timeouts");
  r.guard.restarts = counter_or_zero(m, "guard.restarts");
  r.guard.quarantined_spes = counter_or_zero(m, "guard.quarantined_spes");
  r.guard.ppe_fallbacks = counter_or_zero(m, "guard.ppe_fallbacks");
  r.serve.admitted = counter_or_zero(m, "serve.admitted");
  r.serve.rejected = counter_or_zero(m, "serve.rejected");
  r.serve.ok = counter_or_zero(m, "serve.ok");
  r.serve.degraded = counter_or_zero(m, "serve.degraded");
  r.serve.shed = counter_or_zero(m, "serve.shed");
  r.serve.deadline_missed = counter_or_zero(m, "serve.deadline_missed");
  r.cache_hits = counter_or_zero(m, "cache.hits");
  r.feed_images = counter_or_zero(m, "feed.images");
  // Per-class latency tails from the broker's histograms (absent on a
  // machine that never ran a broker).
  for (const auto& [name, h] : m.histograms()) {
    const std::string prefix = "serve.latency_ns.";
    if (name.rfind(prefix, 0) != 0 || h->count() == 0) continue;
    ServeReport::ClassLatency cl;
    cl.name = name.substr(prefix.size());
    cl.count = h->count();
    cl.p50_ns = h->percentile(50);
    cl.p99_ns = h->percentile(99);
    cl.p99_9_ns = h->percentile(99.9);
    r.serve.classes.push_back(std::move(cl));
  }
  // Tenants are discovered from the counter namespace: the broker
  // registers serve.t<i>.* for every configured tenant, contiguously
  // from 0.
  for (int t = 0;; ++t) {
    const std::string p = "serve.t" + std::to_string(t) + ".";
    if (m.counters().find(p + "admitted") == m.counters().end()) break;
    ServeReport::Tenant tenant;
    tenant.id = t;
    tenant.admitted = counter_or_zero(m, p + "admitted");
    tenant.rejected = counter_or_zero(m, p + "rejected");
    tenant.ok = counter_or_zero(m, p + "ok");
    tenant.degraded = counter_or_zero(m, p + "degraded");
    tenant.shed = counter_or_zero(m, p + "shed");
    tenant.deadline_missed = counter_or_zero(m, p + "deadline_missed");
    r.serve.tenants.push_back(tenant);
  }
  return r;
}

std::string format_report(const MachineReport& report) {
  Table t("Machine report (simulated)");
  t.header({"SPE", "Busy[ms]", "Even[Mcyc]", "Odd[Mcyc]", "Slack[%]",
            "DMA[MB]", "DMA stall[ms]", "LS peak[KiB]"});
  for (const auto& s : report.spes) {
    double issued = std::max(s.even_cycles, s.odd_cycles);
    t.row({std::to_string(s.id), Table::num(ns_to_ms(s.busy_ns), 2),
           Table::num(s.even_cycles / 1e6, 2),
           Table::num(s.odd_cycles / 1e6, 2),
           Table::num(issued > 0 ? 100.0 * s.slack_cycles / issued : 0.0,
                      1),
           Table::num(static_cast<double>(s.dma_bytes) / 1e6, 2),
           Table::num(ns_to_ms(s.dma_stall_ns), 2),
           Table::num(static_cast<double>(s.ls_peak_bytes) / 1024.0, 0)});
  }
  std::string out = t.str();
  out += "  PPE elapsed: " + Table::num(ns_to_ms(report.ppe_ns), 2) +
         " ms   EIB: " +
         Table::num(static_cast<double>(report.eib_bytes) / 1e6, 2) +
         " MB in " + std::to_string(report.eib_transfers) +
         " transfers (" + Table::num(100 * report.eib_utilization, 2) +
         "% of peak)\n";
  // Dual-issue slack summary: where the SIMD schedule leaves the most
  // cycles on the table (the busiest-SPE share is the number cellfuse's
  // pipe balancing drives down).
  double total_slack = 0.0;
  double worst_share = 0.0;
  int worst_spe = 0;
  for (const auto& s : report.spes) {
    total_slack += s.slack_cycles;
    const double issued = std::max(s.even_cycles, s.odd_cycles);
    const double share = issued > 0 ? s.slack_cycles / issued : 0.0;
    if (share > worst_share) {
      worst_share = share;
      worst_spe = s.id;
    }
  }
  if (!report.spes.empty()) {
    out += "  Pipe slack: " + Table::num(total_slack / 1e6, 2) +
           " Mcyc idle in the shorter pipes; worst spe" +
           std::to_string(worst_spe) + " at " +
           Table::num(100.0 * worst_share, 1) + "%\n";
  }
  if (report.dma_list_elements == 0 &&
      !(report.cache_hits > 0 && report.feed_images == 0)) {
    out += "  DMA lists unused: every transfer was a single-element "
           "get/put (no mfc_getl/putl batching)\n";
  } else if (report.dma_list_elements != 0) {
    out += "  DMA lists: " + std::to_string(report.dma_list_elements) +
           " list elements across the SPEs\n";
  }
  if (report.guard.active()) {
    out += "  Guard: " + std::to_string(report.guard.timeouts) +
           " timeouts, " + std::to_string(report.guard.retries) +
           " retries, " + std::to_string(report.guard.restarts) +
           " restarts, " + std::to_string(report.guard.quarantined_spes) +
           " quarantined, " + std::to_string(report.guard.ppe_fallbacks) +
           " PPE fallbacks\n";
  }
  if (report.serve.active()) {
    out += "  Serve: " + std::to_string(report.serve.admitted) +
           " admitted (" + std::to_string(report.serve.ok) + " ok, " +
           std::to_string(report.serve.degraded) + " degraded, " +
           std::to_string(report.serve.shed) + " shed, " +
           std::to_string(report.serve.deadline_missed) +
           " deadline missed), " + std::to_string(report.serve.rejected) +
           " rejected\n";
    for (const auto& c : report.serve.classes) {
      out += "    class " + c.name + ": " + std::to_string(c.count) +
             " served, latency p50 " + Table::num(ns_to_ms(c.p50_ns), 2) +
             " ms, p99 " + Table::num(ns_to_ms(c.p99_ns), 2) +
             " ms, p99.9 " + Table::num(ns_to_ms(c.p99_9_ns), 2) + " ms\n";
    }
    for (const auto& t : report.serve.tenants) {
      out += "    tenant " + std::to_string(t.id) + ": " +
             std::to_string(t.admitted) + " admitted, " +
             std::to_string(t.ok) + " ok, " + std::to_string(t.degraded) +
             " degraded, " + std::to_string(t.shed) + " shed, " +
             std::to_string(t.deadline_missed) + " deadline missed, " +
             std::to_string(t.rejected) + " rejected\n";
    }
  }
  return out;
}

}  // namespace cellport::sim
