#include "serve/broker.h"

#include <algorithm>
#include <string>

#include "support/error.h"

namespace cellport::serve {

namespace {

constexpr int kMinimalModels = 1;

}  // namespace

ServeBroker::ServeBroker(marvel::CellEngine& engine, ServeConfig cfg)
    : engine_(engine),
      cfg_(std::move(cfg)),
      admission_(cfg_),
      sched_(cfg_.tenants) {
  if (cfg_.batch < 1 || cfg_.batch > 128) {
    throw cellport::ConfigError("serve: batch must be 1..128");
  }
  if (cfg_.cycle_windows < 1) {
    throw cellport::ConfigError("serve: cycle_windows must be >= 1");
  }
  if (cfg_.global_budget < 1) {
    throw cellport::ConfigError("serve: global_budget must be >= 1");
  }
  const learn::MarvelModels& m = engine_.models();
  const std::size_t most = std::max(
      {m.color_histogram.models.size(), m.color_correlogram.models.size(),
       m.texture.models.size(), m.edge_histogram.models.size()});
  half_models_ = std::max<int>(1, static_cast<int>((most + 1) / 2));
  stats_.tenants.assign(cfg_.tenants.size(), {});

  trace::MetricsRegistry& reg = metrics();
  for (int c = 0; c < kNumClasses; ++c) {
    const std::string suffix = priority_name(static_cast<Priority>(c));
    class_metrics_[static_cast<std::size_t>(c)] = {
        &reg.histogram("serve.latency_ns." + suffix),
        &reg.histogram("serve.queue_wait_ns." + suffix)};
  }
  for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
    const std::string p = "serve.t" + std::to_string(t) + ".";
    tenant_metrics_.push_back({&reg.counter(p + "admitted"),
                               &reg.counter(p + "rejected"),
                               &reg.counter(p + "ok"),
                               &reg.counter(p + "degraded"),
                               &reg.counter(p + "shed"),
                               &reg.counter(p + "deadline_missed"),
                               &reg.gauge(p + "queue_depth")});
  }
}

trace::MetricsRegistry& ServeBroker::metrics() {
  return engine_.machine().metrics();
}

sim::ScalarContext& ServeBroker::ppe() { return engine_.machine().ppe(); }

int ServeBroker::level_max_models(int level) const {
  if (level <= 0) return 0;
  return level == 1 ? half_models_ : kMinimalModels;
}

std::size_t ServeBroker::current_budget() const {
  const guard::SpeHealth* health = engine_.health();
  const int quarantined =
      health != nullptr ? health->quarantined_count() : 0;
  return admission_.effective_budget(engine_.machine().num_spes(),
                                     quarantined);
}

sim::SimTime ServeBroker::resolved_deadline(const ServeRequest& r) const {
  return r.deadline_ns > 0 ? r.deadline_ns
                           : r.arrival_ns + cfg_.default_deadline_ns;
}

marvel::StreamEngine& ServeBroker::stream(int level) {
  auto& slot = streams_[static_cast<std::size_t>(level)];
  if (slot == nullptr) {
    marvel::StreamOptions opts;
    opts.batch = cfg_.batch;
    opts.max_models = level_max_models(level);
    slot = std::make_unique<marvel::StreamEngine>(engine_, opts);
  }
  return *slot;
}

void ServeBroker::set_queue_gauges() {
  std::size_t total = 0;
  for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
    const std::size_t d = sched_.depth(static_cast<int>(t));
    tenant_metrics_[t].queue_depth->set(static_cast<double>(d));
    total += d;
  }
  metrics().gauge("serve.queue_depth").set(static_cast<double>(total));
}

void ServeBroker::terminate(std::size_t idx, ServeStatus st,
                            sim::SimTime now) {
  ServeResponse& resp = responses_[idx];
  resp.status = st;
  resp.done_ns = now;
  const auto t = static_cast<std::size_t>(resp.tenant);
  TenantStats& ts = stats_.tenants[t];
  TenantMetrics& tm = tenant_metrics_[t];
  trace::MetricsRegistry& reg = metrics();
  switch (st) {
    case ServeStatus::kOk:
      ++stats_.ok;
      ++ts.ok;
      tm.ok->add(1);
      reg.counter("serve.ok").add(1);
      break;
    case ServeStatus::kDegraded:
      ++stats_.degraded;
      ++ts.degraded;
      tm.degraded->add(1);
      reg.counter("serve.degraded").add(1);
      break;
    case ServeStatus::kShed:
      ++stats_.shed;
      ++ts.shed;
      tm.shed->add(1);
      reg.counter("serve.shed").add(1);
      break;
    case ServeStatus::kDeadlineMissed:
      ++stats_.deadline_missed;
      ++ts.deadline_missed;
      tm.deadline_missed->add(1);
      reg.counter("serve.deadline_missed").add(1);
      break;
    case ServeStatus::kRejected:
      ++stats_.rejected;
      ++ts.rejected;
      tm.rejected->add(1);
      reg.counter("serve.rejected").add(1);
      break;
    case ServeStatus::kQueued:
      throw cellport::Error("serve: kQueued is not terminal");
  }
}

void ServeBroker::admit_due(sim::SimTime now) {
  while (next_ < order_.size() &&
         requests_[order_[next_]].arrival_ns <= now) {
    const std::size_t idx = order_[next_++];
    const ServeRequest& r = requests_[idx];
    // Admission bookkeeping: a few queue-state reads and one insert.
    ppe().charge(sim::OpClass::kLoad, 4);
    ppe().charge(sim::OpClass::kStore, 4);
    QueuedRequest victim;
    const auto verdict = admission_.decide(r, deadlines_[idx], sched_,
                                           current_budget(), &victim);
    const auto t = static_cast<std::size_t>(r.tenant);
    const QueuedRequest qr{idx, r.tenant, r.priority, deadlines_[idx]};
    switch (verdict) {
      case AdmissionController::Verdict::kRejectTenantFull:
        terminate(idx, ServeStatus::kRejected, ppe().now_ns());
        break;
      case AdmissionController::Verdict::kEvictThenAdmit: {
        QueuedRequest popped;
        sched_.pop_shed_victim(&popped);
        responses_[popped.index].degrade_level = level_;
        terminate(popped.index, ServeStatus::kShed, ppe().now_ns());
        ++stats_.admitted;
        ++stats_.tenants[t].admitted;
        tenant_metrics_[t].admitted->add(1);
        metrics().counter("serve.admitted").add(1);
        sched_.push(qr);
        break;
      }
      case AdmissionController::Verdict::kShedIncoming:
        ++stats_.admitted;
        ++stats_.tenants[t].admitted;
        tenant_metrics_[t].admitted->add(1);
        metrics().counter("serve.admitted").add(1);
        responses_[idx].degrade_level = level_;
        terminate(idx, ServeStatus::kShed, ppe().now_ns());
        break;
      case AdmissionController::Verdict::kAdmit:
        ++stats_.admitted;
        ++stats_.tenants[t].admitted;
        tenant_metrics_[t].admitted->add(1);
        metrics().counter("serve.admitted").add(1);
        sched_.push(qr);
        break;
    }
  }
}

void ServeBroker::cycle() {
  sim::ScalarContext& clock = ppe();
  const sim::SimTime t0 = clock.now_ns();
  const bool probing = engine_.probe() != nullptr;
  // The broker's own request trace: one kServeQueue span covering
  // expiry/shedding/scheduling up to the ring dispatch. It ends where
  // the engine's "stream" trace begins, so attribution partitions queue
  // wait vs service without double counting.
  if (probing) {
    rt_.start("serve", t0);
    rt_.open(probe::Phase::kServeQueue, t0, "schedule");
  }
  ++stats_.cycles;

  for (const QueuedRequest& q : sched_.expire_due(t0)) {
    responses_[q.index].degrade_level = level_;
    terminate(q.index, ServeStatus::kDeadlineMissed, clock.now_ns());
  }

  // Quarantined SPEs shrink the budget; excess backlog sheds
  // lowest-priority-first (never kHigh).
  const std::size_t budget = current_budget();
  metrics().gauge("serve.effective_budget")
      .set(static_cast<double>(budget));
  QueuedRequest victim;
  while (sched_.total_depth() > budget &&
         sched_.pop_shed_victim(&victim)) {
    responses_[victim.index].degrade_level = level_;
    terminate(victim.index, ServeStatus::kShed, clock.now_ns());
  }

  const double pressure =
      static_cast<double>(sched_.total_depth()) /
      static_cast<double>(budget);
  level_ = pressure >= cfg_.degrade_minimal_at
               ? 2
               : (pressure >= cfg_.degrade_concepts_at ? 1 : 0);
  stats_.max_degrade_level = std::max(stats_.max_degrade_level, level_);
  metrics().gauge("serve.degrade_level").set(level_);
  set_queue_gauges();

  const auto want = static_cast<std::size_t>(cfg_.batch) *
                    static_cast<std::size_t>(cfg_.cycle_windows);
  std::vector<QueuedRequest> batch = sched_.pick_batch(want);
  // Scheduling work: a weighted rotation over the class queues.
  clock.charge(sim::OpClass::kLoad, 4 + 2 * batch.size());

  const sim::SimTime dispatch_t = clock.now_ns();
  if (probing) {
    rt_.close(dispatch_t);
    rt_.finish(dispatch_t);
    engine_.probe()->on_request(rt_);
  }
  if (batch.empty()) return;

  const int level = level_;
  marvel::StreamEngine& se = stream(level);
  for (const QueuedRequest& q : batch) {
    se.submit(requests_[q.index].image);
  }
  std::vector<marvel::AnalysisResult> results = se.drain();
  const std::vector<sim::SimTime>& done_ts = se.completion_ns();

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t idx = batch[i].index;
    ServeResponse& resp = responses_[idx];
    resp.served = true;
    resp.degrade_level = level;
    resp.start_ns = dispatch_t;
    resp.result = std::move(results[i]);
    if (level == 1) {
      resp.result.degraded.push_back(
          "serve:concepts=" + std::to_string(half_models_));
    } else if (level == 2) {
      resp.result.degraded.push_back("serve:minimal-detect");
    }
    const sim::SimTime done = done_ts[i];
    ServeStatus st;
    if (done > deadlines_[idx]) {
      st = ServeStatus::kDeadlineMissed;
      resp.result.degraded.push_back("serve:deadline_missed");
    } else {
      st = level > 0 ? ServeStatus::kDegraded : ServeStatus::kOk;
    }
    const auto c = static_cast<std::size_t>(resp.priority);
    class_metrics_[c].latency->record(
        static_cast<double>(done - resp.arrival_ns));
    class_metrics_[c].queue_wait->record(
        static_cast<double>(dispatch_t - resp.arrival_ns));
    terminate(idx, st, done);
  }
}

std::vector<ServeResponse> ServeBroker::run(
    std::vector<ServeRequest> requests) {
  requests_ = std::move(requests);
  responses_.assign(requests_.size(), ServeResponse{});
  deadlines_.resize(requests_.size());
  order_.resize(requests_.size());
  next_ = 0;
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const ServeRequest& r = requests_[i];
    if (r.tenant < 0 ||
        static_cast<std::size_t>(r.tenant) >= cfg_.tenants.size()) {
      throw cellport::ConfigError("serve: request names unknown tenant");
    }
    deadlines_[i] = resolved_deadline(r);
    ServeResponse& resp = responses_[i];
    resp.tenant = r.tenant;
    resp.priority = r.priority;
    resp.arrival_ns = r.arrival_ns;
    order_[i] = i;
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return requests_[a].arrival_ns <
                            requests_[b].arrival_ns;
                   });

  while (true) {
    admit_due(ppe().now_ns());
    if (sched_.total_depth() == 0) {
      if (next_ >= order_.size()) break;
      const sim::SimTime now = ppe().now_ns();
      const sim::SimTime arrival = requests_[order_[next_]].arrival_ns;
      // Idle until the next arrival — the broker's clock is the PPE's.
      if (arrival > now) ppe().advance_ns(arrival - now);
      continue;
    }
    cycle();
  }
  set_queue_gauges();
  // Early-shutdown discipline: close every service engine. Nothing is
  // pending (each cycle drains what it submits), so every submitted
  // request reports kCompleted — the close() contract the stream tests
  // assert.
  for (auto& se : streams_) {
    if (se != nullptr) se->close();
  }
  return std::move(responses_);
}

}  // namespace cellport::serve
