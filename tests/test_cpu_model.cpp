// CPU power-state simulator: exact timelines under deterministic traces,
// M/M/1 limits, share normalization, warm-up handling and ensembles.
#include <gtest/gtest.h>

#include <cmath>

#include "des/cpu_model.hpp"
#include "markov/mm1.hpp"
#include "util/error.hpp"
#include "util/executor.hpp"

namespace wsn::des {
namespace {

TEST(CpuModel, SharesSumToOne) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = 0.2;
  cfg.power_up_delay = 0.3;
  cfg.sim_time = 500.0;
  CpuSimulation sim(cfg, 7);
  const CpuRunResult r = sim.Run();
  EXPECT_NEAR(r.FractionStandby() + r.FractionPowerUp() + r.FractionIdle() +
                  r.FractionActive(),
              1.0, 1e-9);
  EXPECT_GT(r.jobs_completed, 0u);
}

TEST(CpuModel, DeterministicTraceExactTimeline) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;  // unused with a trace workload
  cfg.mean_service_time = 0.5;
  cfg.service_distribution = util::Distribution(util::Deterministic{0.5});
  cfg.power_down_threshold = 1.0;
  cfg.power_up_delay = 0.25;
  cfg.sim_time = 10.0;
  cfg.record_trace = true;

  CpuSimulation sim(cfg, 1,
                    std::make_unique<TraceWorkload>(
                        std::vector<double>{1.0, 5.0}));
  const CpuRunResult r = sim.Run();

  // standby [0,1) u [2.75,5) u [6.75,10]; powerup [1,1.25) u [5,5.25);
  // active [1.25,1.75) u [5.25,5.75); idle [1.75,2.75) u [5.75,6.75).
  EXPECT_NEAR(r.time_standby, 6.5, 1e-9);
  EXPECT_NEAR(r.time_powerup, 0.5, 1e-9);
  EXPECT_NEAR(r.time_active, 1.0, 1e-9);
  EXPECT_NEAR(r.time_idle, 2.0, 1e-9);
  EXPECT_EQ(r.jobs_completed, 2u);
  EXPECT_NEAR(r.latency.Mean(), 0.75, 1e-9);
  // Trace recorded the expected state sequence.
  EXPECT_NEAR(r.trace.TimeIn("standby", 10.0), 6.5, 1e-9);
  EXPECT_NEAR(r.trace.TimeIn("powerup", 10.0), 0.5, 1e-9);
}

TEST(CpuModel, ArrivalDuringPowerUpQueues) {
  CpuModelConfig cfg;
  cfg.service_distribution = util::Distribution(util::Deterministic{0.1});
  cfg.power_down_threshold = 2.0;
  cfg.power_up_delay = 0.5;
  cfg.sim_time = 4.0;
  CpuSimulation sim(cfg, 1,
                    std::make_unique<TraceWorkload>(
                        std::vector<double>{1.0, 1.1}));
  const CpuRunResult r = sim.Run();
  EXPECT_EQ(r.jobs_completed, 2u);
  // Job 1 done at 1.6 (waited through power-up), job 2 at 1.7.
  EXPECT_NEAR(r.latency.Mean(), 0.6, 1e-9);
  EXPECT_NEAR(r.time_powerup, 0.5, 1e-9);
  EXPECT_NEAR(r.time_active, 0.2, 1e-9);
}

TEST(CpuModel, ArrivalDuringIdleCancelsPowerDown) {
  CpuModelConfig cfg;
  cfg.service_distribution = util::Distribution(util::Deterministic{0.1});
  cfg.power_down_threshold = 1.0;
  cfg.power_up_delay = 0.5;
  cfg.sim_time = 3.0;
  // Second arrival lands inside the idle window of the first job, so the
  // CPU never powers down between them.
  CpuSimulation sim(cfg, 1,
                    std::make_unique<TraceWorkload>(
                        std::vector<double>{0.0, 0.7}));
  const CpuRunResult r = sim.Run();
  // Timeline: powerup [0,.5), active [.5,.6), idle [.6,.7),
  // active [.7,.8), idle [.8,1.8), standby [1.8,3).
  EXPECT_NEAR(r.time_powerup, 0.5, 1e-9);
  EXPECT_NEAR(r.time_active, 0.2, 1e-9);
  EXPECT_NEAR(r.time_idle, 1.1, 1e-9);
  EXPECT_NEAR(r.time_standby, 1.2, 1e-9);
}

TEST(CpuModel, HugeThresholdBehavesLikeMm1) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = 1e9;  // never powers down after first wake
  cfg.power_up_delay = 0.001;
  cfg.sim_time = 20000.0;
  util::ParallelExecutor executor;
  const CpuEnsembleResult agg = RunCpuEnsemble(cfg, 11, 8, executor);

  const markov::Mm1 mm1{1.0, 10.0};
  EXPECT_NEAR(agg.active.Mean(), mm1.Utilization(), 0.01);
  EXPECT_NEAR(agg.idle.Mean(), 1.0 - mm1.Utilization(), 0.02);
  EXPECT_LT(agg.standby.Mean(), 1e-3);
  EXPECT_NEAR(agg.mean_latency.Mean(), mm1.MeanLatency(), 0.02);
}

TEST(CpuModel, ZeroDelaysMatchMm1WithSleep) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = 0.0;
  cfg.power_up_delay = 0.0;
  cfg.sim_time = 20000.0;
  util::ParallelExecutor executor;
  const CpuEnsembleResult agg = RunCpuEnsemble(cfg, 13, 8, executor);
  EXPECT_NEAR(agg.active.Mean(), 0.1, 0.01);
  EXPECT_NEAR(agg.standby.Mean(), 0.9, 0.01);
  EXPECT_LT(agg.idle.Mean(), 1e-9);
  EXPECT_LT(agg.powerup.Mean(), 1e-9);
  // D = 0 makes the queue an exact M/M/1.
  const markov::Mm1 mm1{1.0, 10.0};
  EXPECT_NEAR(agg.mean_latency.Mean(), mm1.MeanLatency(), 0.02);
}

TEST(CpuModel, WarmupExcludedFromStatistics) {
  CpuModelConfig cfg;
  cfg.service_distribution = util::Distribution(util::Deterministic{0.1});
  cfg.power_down_threshold = 10.0;
  cfg.power_up_delay = 0.5;
  cfg.sim_time = 3.0;
  cfg.warmup_time = 2.0;
  // Single arrival at t = 0: all powerup/active action is inside warmup.
  CpuSimulation sim(cfg, 1,
                    std::make_unique<TraceWorkload>(
                        std::vector<double>{0.0}));
  const CpuRunResult r = sim.Run();
  EXPECT_NEAR(r.observed_time, 1.0, 1e-12);
  EXPECT_NEAR(r.time_idle, 1.0, 1e-9);  // only idle remains after warmup
  EXPECT_NEAR(r.time_powerup, 0.0, 1e-9);
  EXPECT_EQ(r.latency.Count(), 0u);  // completion happened during warmup
}

TEST(CpuModel, JobsConserved) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 2.0;
  cfg.mean_service_time = 0.2;
  cfg.power_down_threshold = 0.1;
  cfg.power_up_delay = 0.05;
  cfg.sim_time = 1000.0;
  CpuSimulation sim(cfg, 99);
  const CpuRunResult r = sim.Run();
  // Completions can lag arrivals only by the residual queue.
  EXPECT_LE(r.jobs_completed, r.jobs_arrived);
  EXPECT_GE(r.jobs_completed + 50, r.jobs_arrived);
  // Roughly rate * horizon arrivals.
  EXPECT_NEAR(static_cast<double>(r.jobs_arrived), 2000.0, 5.0 * 45.0);
}

TEST(CpuModel, EnsembleCiShrinksWithReplications) {
  CpuModelConfig cfg;
  cfg.sim_time = 200.0;
  util::ParallelExecutor executor;
  const auto few = RunCpuEnsemble(cfg, 5, 4, executor);
  const auto many = RunCpuEnsemble(cfg, 5, 32, executor);
  EXPECT_GT(few.idle.StdError(), many.idle.StdError());
}

TEST(CpuModel, EnsembleBitIdenticalAcrossExecutorWidths) {
  // Replication seeds come from the base generator, not the thread that
  // runs them, and aggregation is in replication order: widths 1 and 4
  // must agree to the last bit.
  CpuModelConfig cfg;
  cfg.power_down_threshold = 0.2;
  cfg.power_up_delay = 0.3;
  cfg.sim_time = 200.0;
  util::ParallelExecutor serial(1);
  util::ParallelExecutor parallel(4);
  const CpuEnsembleResult a = RunCpuEnsemble(cfg, 17, 12, serial);
  const CpuEnsembleResult b = RunCpuEnsemble(cfg, 17, 12, parallel);
  for (const auto member :
       {&CpuEnsembleResult::standby, &CpuEnsembleResult::powerup,
        &CpuEnsembleResult::idle, &CpuEnsembleResult::active,
        &CpuEnsembleResult::mean_latency, &CpuEnsembleResult::mean_jobs,
        &CpuEnsembleResult::completed}) {
    EXPECT_EQ((a.*member).Count(), (b.*member).Count());
    EXPECT_EQ((a.*member).Mean(), (b.*member).Mean());
    EXPECT_EQ((a.*member).Variance(), (b.*member).Variance());
  }
}

TEST(CpuModel, DeterministicGivenSeed) {
  CpuModelConfig cfg;
  cfg.sim_time = 300.0;
  const CpuRunResult a = CpuSimulation(cfg, 1234).Run();
  const CpuRunResult b = CpuSimulation(cfg, 1234).Run();
  EXPECT_DOUBLE_EQ(a.time_idle, b.time_idle);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
}

TEST(CpuModel, RejectsBadConfig) {
  CpuModelConfig cfg;
  cfg.sim_time = -1.0;
  EXPECT_THROW(CpuSimulation(cfg, 1).Run(), util::InvalidArgument);
  CpuModelConfig cfg2;
  cfg2.warmup_time = cfg2.sim_time + 1.0;
  EXPECT_THROW(CpuSimulation(cfg2, 1).Run(), util::InvalidArgument);
}

}  // namespace
}  // namespace wsn::des
