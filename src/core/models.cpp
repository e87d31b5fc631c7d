#include "core/models.hpp"

#include <algorithm>
#include <cmath>

#include "des/cpu_model.hpp"
#include "markov/stages.hpp"
#include "markov/supplementary.hpp"
#include "petri/ctmc_solver.hpp"
#include "petri/dspn_solver.hpp"
#include "petri/simulation.hpp"
#include "util/executor.hpp"
#include "util/statistics.hpp"

namespace wsn::core {

ModelEvaluation SimulationCpuModel::Evaluate(const CpuParams& params) const {
  des::CpuModelConfig cfg;
  cfg.arrival_rate = params.arrival_rate;
  cfg.mean_service_time = params.MeanServiceTime();
  cfg.power_down_threshold = params.power_down_threshold;
  cfg.power_up_delay = params.power_up_delay;
  cfg.sim_time = config_.sim_time;
  cfg.warmup_time = config_.warmup;

  util::ParallelExecutor executor(config_.threads);
  const des::CpuEnsembleResult agg = des::RunCpuEnsemble(
      cfg, config_.seed, config_.replications, executor);

  ModelEvaluation out;
  out.shares.standby = agg.standby.Mean();
  out.shares.powerup = agg.powerup.Mean();
  out.shares.idle = agg.idle.Mean();
  out.shares.active = agg.active.Mean();
  out.mean_jobs = agg.mean_jobs.Mean();
  out.mean_latency = agg.mean_latency.Mean();
  out.share_ci_halfwidth = std::max(
      {util::IntervalFromStats(agg.standby).half_width,
       util::IntervalFromStats(agg.powerup).half_width,
       util::IntervalFromStats(agg.idle).half_width,
       util::IntervalFromStats(agg.active).half_width});
  return out;
}

ModelEvaluation MarkovCpuModel::Evaluate(const CpuParams& params) const {
  const markov::SupplementaryVariableModel model(
      params.arrival_rate, params.service_rate, params.power_down_threshold,
      params.power_up_delay);
  const markov::SupplementaryResult r = model.Evaluate();

  ModelEvaluation out;
  out.shares.standby = r.p_standby;
  out.shares.powerup = r.p_powerup;
  out.shares.idle = r.p_idle;
  out.shares.active = r.p_active;
  out.mean_jobs = r.mean_jobs;
  out.mean_latency = r.mean_latency;
  return out;
}

namespace {

/// Map Fig. 3 place statistics to the four state shares.
/// Active implies CPU_ON, so idle time is E[#CPU_ON] - E[#Active].
energy::StateShares SharesFromTokens(double standby, double powerup,
                                     double cpu_on, double active) {
  energy::StateShares s;
  s.standby = standby;
  s.powerup = powerup;
  s.active = active;
  s.idle = std::max(0.0, cpu_on - active);
  return s;
}

}  // namespace

ModelEvaluation PetriNetCpuModel::Evaluate(const CpuParams& params) const {
  CpuNetLayout layout;
  const petri::PetriNet net = BuildCpuPetriNet(params, &layout);

  petri::SimulationConfig cfg;
  cfg.horizon = config_.sim_time;
  cfg.warmup = config_.warmup;
  cfg.seed = config_.seed;

  util::ParallelExecutor executor(config_.threads);
  const petri::EnsembleResult agg = petri::SimulateSpnEnsemble(
      net, cfg, config_.replications, executor);

  const auto mean = [&](petri::PlaceId p) {
    return agg.mean_tokens[p].Mean();
  };
  const auto ci = [&](petri::PlaceId p) {
    return util::IntervalFromStats(agg.mean_tokens[p]).half_width;
  };

  ModelEvaluation out;
  out.shares = SharesFromTokens(mean(layout.standby), mean(layout.powerup),
                                mean(layout.cpu_on), mean(layout.active));
  out.mean_jobs = mean(layout.cpu_buffer) + mean(layout.active);
  out.mean_latency = out.mean_jobs / params.arrival_rate;  // Little's law
  out.share_ci_halfwidth =
      std::max({ci(layout.standby), ci(layout.powerup), ci(layout.cpu_on),
                ci(layout.active)});
  return out;
}

ModelEvaluation StagesMarkovCpuModel::Evaluate(const CpuParams& params) const {
  const markov::StagesCpuModel model(
      params.arrival_rate, params.service_rate, params.power_down_threshold,
      params.power_up_delay, stages_, stages_);
  const markov::StagesResult r = model.Evaluate();

  ModelEvaluation out;
  out.shares.standby = r.p_standby;
  out.shares.powerup = r.p_powerup;
  out.shares.idle = r.p_idle;
  out.shares.active = r.p_active;
  out.mean_jobs = r.mean_jobs;
  out.mean_latency = r.mean_jobs / params.arrival_rate;
  return out;
}

ModelEvaluation PetriSolverCpuModel::Evaluate(const CpuParams& params) const {
  CpuNetLayout layout;
  const petri::PetriNet net = BuildCpuPetriNet(params, &layout);

  petri::SolverOptions opts;
  opts.det_stages = stages_;
  // The Fig. 3 net is open (the buffer is unbounded); truncate generously
  // relative to the power-up pile-up and the queue's busy periods so the
  // lost probability mass is far below solver tolerance.
  const double rho = params.Rho();
  const double ld = params.arrival_rate * params.power_up_delay;
  opts.truncate_tokens = static_cast<std::uint32_t>(std::clamp(
      std::ceil(ld + 8.0 * std::sqrt(ld + 1.0) + 30.0 / (1.0 - rho)),
      40.0, 2000.0));
  const petri::SpnSteadyState ss = petri::SolveSteadyState(net, opts);

  ModelEvaluation out;
  out.shares = SharesFromTokens(
      ss.mean_tokens[layout.standby], ss.mean_tokens[layout.powerup],
      ss.mean_tokens[layout.cpu_on], ss.mean_tokens[layout.active]);
  out.mean_jobs =
      ss.mean_tokens[layout.cpu_buffer] + ss.mean_tokens[layout.active];
  out.mean_latency = out.mean_jobs / params.arrival_rate;
  return out;
}

ModelEvaluation DspnExactCpuModel::Evaluate(const CpuParams& params) const {
  CpuNetLayout layout;
  const petri::PetriNet net = BuildCpuPetriNet(params, &layout);

  petri::DspnOptions opts;
  const double rho = params.Rho();
  const double ld = params.arrival_rate * params.power_up_delay;
  opts.truncate_tokens = static_cast<std::uint32_t>(std::clamp(
      std::ceil(ld + 8.0 * std::sqrt(ld + 1.0) + 30.0 / (1.0 - rho)),
      40.0, 2000.0));
  const petri::SpnSteadyState ss = petri::SolveDspnExact(net, opts);

  ModelEvaluation out;
  out.shares = SharesFromTokens(
      ss.mean_tokens[layout.standby], ss.mean_tokens[layout.powerup],
      ss.mean_tokens[layout.cpu_on], ss.mean_tokens[layout.active]);
  out.mean_jobs =
      ss.mean_tokens[layout.cpu_buffer] + ss.mean_tokens[layout.active];
  out.mean_latency = out.mean_jobs / params.arrival_rate;
  return out;
}

std::vector<std::unique_ptr<CpuEnergyModel>> MakePaperModels(
    const EvalConfig& config) {
  std::vector<std::unique_ptr<CpuEnergyModel>> models;
  models.push_back(std::make_unique<SimulationCpuModel>(config));
  models.push_back(std::make_unique<MarkovCpuModel>());
  models.push_back(std::make_unique<PetriNetCpuModel>(config));
  return models;
}

}  // namespace wsn::core
