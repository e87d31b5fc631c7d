#include "netsim/replication.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wsn::netsim {

namespace {

ReplicationSummary Summarize(std::vector<NetSimReport> reports,
                             const ReplicationConfig& rep) {
  ReplicationSummary out;
  out.replications = reports.size();
  for (NetSimReport& report : reports) {
    if (std::isfinite(report.first_death_s)) {
      out.first_death_s.stats.Add(report.first_death_s);
    }
    if (std::isfinite(report.partition_s)) {
      out.partition_s.stats.Add(report.partition_s);
    }
    out.delivery_ratio.stats.Add(report.DeliveryRatio());
    out.delivered.stats.Add(static_cast<double>(report.packets.delivered));
    // Observability outputs combine here, serially and in replication
    // order — the step that makes --metrics/--trace files independent of
    // the thread count that produced the replications.
    out.metrics.MergeFrom(report.metrics);
    out.trace += report.trace;
    if (!rep.keep_reports) {
      report.trace.clear();  // don't keep a second copy alive
    }
  }
  for (MetricSummary* m : {&out.first_death_s, &out.partition_s,
                           &out.delivery_ratio, &out.delivered}) {
    m->observed = m->stats.Count();
    if (m->observed >= 2) {
      m->ci = util::IntervalFromStats(m->stats, rep.ci_level);
    } else {
      m->ci = {m->stats.Mean(), 0.0, rep.ci_level};
    }
  }
  if (rep.keep_reports) out.reports = std::move(reports);
  return out;
}

std::vector<NetSimReport> RunAll(const NetSimConfig& config,
                                 double cpu_power_mw,
                                 const ReplicationConfig& rep,
                                 util::ParallelExecutor& executor) {
  util::Require(rep.replications > 0, "need at least one replication");
  return executor.MapSeeded(
      rep.replications, rep.seed, [&](std::size_t r, util::Rng stream) {
        NetSimConfig c = config;
        // Stamp the replication index into every trace line so the
        // concatenated file stays attributable (and mergeable) later.
        c.obs.trace.replication = static_cast<std::uint32_t>(r);
        NetworkSimulator sim(std::move(c), cpu_power_mw, stream);
        return sim.Run();
      });
}

}  // namespace

ReplicationSummary RunReplications(const NetSimConfig& config,
                                   const core::CpuEnergyModel& cpu_model,
                                   const ReplicationConfig& rep,
                                   util::ParallelExecutor& executor) {
  // Evaluate the CPU model once, outside the workers: some models are
  // expensive, and every node/replication shares the same operating point.
  const double cpu_mw = CpuAveragePowerMw(config, cpu_model);
  return Summarize(RunAll(config, cpu_mw, rep, executor), rep);
}

}  // namespace wsn::netsim
