#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "calibrate.hpp"
#include "core/experiment.hpp"
#include "core/models.hpp"
#include "energy/power_state.hpp"
#include "netsim/netsim.hpp"
#include "util/rng.hpp"
#include "wsn/network.hpp"

namespace perfbench {

using namespace wsn;

namespace {

/// 64-bit FNV-1a over the bit pattern of each value, so two runs whose
/// model outputs agree bit for bit produce the same digest.
class Digest {
 public:
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t Value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Forwards to a library model and opens a span around every Evaluate.
/// It also logs what each call returned, which ComputeDeltaTables does
/// not hand back.  The sweep runs on a one-thread executor, so the
/// mutable log is never written concurrently.
class TimedModel final : public core::CpuEnergyModel {
 public:
  struct Call {
    core::CpuParams params;
    energy::StateShares shares;
  };

  TimedModel(const core::CpuEnergyModel& inner, std::string span,
             Tracer* tracer, std::uint64_t op)
      : inner_(inner), span_(std::move(span)), tracer_(tracer), op_(op) {}

  core::ModelEvaluation Evaluate(const core::CpuParams& params) const override {
    ScopedSpan s(tracer_, span_, op_);
    core::ModelEvaluation eval = inner_.Evaluate(params);
    calls_.push_back({params, eval.shares});
    return eval;
  }
  std::string Name() const override { return inner_.Name(); }

  const std::vector<Call>& Calls() const noexcept { return calls_; }

 private:
  const core::CpuEnergyModel& inner_;
  std::string span_;
  Tracer* tracer_;
  std::uint64_t op_;
  mutable std::vector<Call> calls_;
};

// ------------------------------------------------------------- netsim

/// Topology and stop rule of a netsim workload; the rest of the node and
/// MAC configuration is the netsim-scale deployment.
struct NetsimShape {
  std::size_t nodes = 0;
  double horizon_s = 0.0;
  bool leach = false;
};

constexpr double kSpacingM = 15.0;
constexpr double kHopM = 40.0;
constexpr double kRatePerNode = 0.01;
constexpr double kDeathFraction = 0.08;
/// Seeded position jitter, as a share of the grid spacing.
constexpr double kJitter = 0.03;

class NetsimWorkload final : public Workload {
 public:
  NetsimWorkload(NetsimShape shape, std::uint64_t seed)
      : shape_(shape), seed_(seed) {}

  void SetupOnce() override { Build(nullptr, 0); }

  OpResult RunOnce(Tracer* tracer, std::uint64_t op) override {
    OpResult out;
    out.attempted = 1;
    ScopedSpan root(tracer, "replication", op);
    Built built = Build(tracer, op);

    netsim::NetSimReport report;
    {
      ScopedSpan s(tracer, "netsim.run", op);
      out.start_s = MonotonicSeconds();
      report = built.sim->Run();
      out.wall_s = MonotonicSeconds() - out.start_s;
    }
    Check(report, built, out);
    Record(report, built, tracer != nullptr, out);
    return out;
  }

  std::map<std::string, std::string> Describe() const override {
    return {{"nodes", std::to_string(shape_.nodes)},
            {"horizon_s", std::to_string(shape_.horizon_s)},
            {"routing", shape_.leach ? "leach" : "flat"},
            {"staged_deaths", std::to_string(StagedCount())}};
  }

 private:
  struct Built {
    std::unique_ptr<netsim::NetworkSimulator> sim;
    std::vector<std::size_t> staged;  ///< nodes whose battery empties
  };

  std::size_t StagedCount() const {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::round(
               kDeathFraction * static_cast<double>(shape_.nodes))));
  }

  /// The netsim-scale deployment: a near-square 15 m grid jittered by the
  /// seed, 40 m hops, 0.01 reports/s per node, and LEACH when asked for.
  netsim::NetSimConfig Deployment(util::Rng& rng) const {
    netsim::NetSimConfig cfg;
    cfg.network.node.cpu.arrival_rate = kRatePerNode;
    cfg.network.node.cpu.service_rate = 10.0 * std::max(kRatePerNode, 0.1);
    cfg.network.node.cpu_power = energy::Msp430();
    cfg.network.node.sample_bits = 1024;
    cfg.network.node.listen_duty_cycle = 0.01;
    cfg.network.sink = {0.0, 0.0};
    cfg.network.max_hop_m = kHopM;
    cfg.horizon_s = shape_.horizon_s;

    const std::size_t n = shape_.nodes;
    const std::size_t cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    const std::size_t rows = (n + cols - 1) / cols;
    cfg.positions = node::MakeGrid(cols, rows, kSpacingM);
    cfg.positions.resize(n);
    const double jitter = kJitter * kSpacingM;
    for (node::Position& p : cfg.positions) {
      p.x += jitter * (2.0 * util::UniformDouble(rng) - 1.0);
      p.y += jitter * (2.0 * util::UniformDouble(rng) - 1.0);
    }

    if (shape_.leach) {
      cfg.cluster.protocol = netsim::ClusterProtocolKind::kLeach;
      cfg.cluster.head_fraction = 0.05;
      cfg.cluster.round_s = shape_.horizon_s / 20.0;
      cfg.cluster.aggregation = 4;
      cfg.cluster.assign = netsim::HeadAssignMode::kGrid;
    }
    return cfg;
  }

  /// Stages the deaths: 8% of the nodes, one per stride past the
  /// sink-side decile at a seeded offset, get a battery that the baseline
  /// drain alone empties at 0.3-0.9 x horizon.  Everyone else's battery
  /// outlives the horizon.  Returns the staged nodes.
  std::vector<std::size_t> StageDeaths(netsim::NetSimConfig& cfg,
                                       double cpu_mw, util::Rng& rng) const {
    const node::NodeConfig& tpl = cfg.network.node;
    const double baseline_mw = cpu_mw +
                               tpl.listen_duty_cycle * tpl.radio.listen_mw +
                               (1.0 - tpl.listen_duty_cycle) *
                                   tpl.radio.sleep_mw;
    const std::size_t n = shape_.nodes;
    const std::size_t doomed = StagedCount();
    const std::size_t low = n / 10;
    const std::size_t span = n - low;
    cfg.battery_mah_override.assign(n, 50.0);
    std::vector<std::size_t> staged;
    for (std::size_t k = 0; k < doomed; ++k) {
      const std::size_t begin = low + (k * span) / doomed;
      const std::size_t end = low + ((k + 1) * span) / doomed;
      const std::size_t idx =
          begin + util::UniformBelow(rng, std::max<std::size_t>(1, end - begin));
      const double frac = doomed > 1 ? static_cast<double>(k) /
                                           static_cast<double>(doomed - 1)
                                     : 0.0;
      const double death_t = shape_.horizon_s * (0.3 + 0.6 * frac);
      cfg.battery_mah_override[idx] =
          (baseline_mw / 1000.0) * death_t / (tpl.battery_volts * 3.6);
      staged.push_back(idx);
    }
    return staged;
  }

  /// Set-up: config generation, the CPU model's average power and the
  /// simulator constructor (spatial grid, routing table, first events).
  Built Build(Tracer* tracer, std::uint64_t op) const {
    ScopedSpan s(tracer, "setup", op);
    util::Rng rng(seed_);
    netsim::NetSimConfig cfg = Deployment(rng);
    const core::MarkovCpuModel markov;
    const TimedModel timed(markov, "core.markov.eval", tracer, op);
    const double cpu_mw = netsim::CpuAveragePowerMw(cfg, timed);
    Built built;
    built.staged = StageDeaths(cfg, cpu_mw, rng);
    cfg.obs.metrics = tracer != nullptr;
    ScopedSpan c(tracer, "netsim.construct", op);
    built.sim = std::make_unique<netsim::NetworkSimulator>(
        std::move(cfg), cpu_mw, util::Rng(seed_).MakeStream(1));
    return built;
  }

  static std::uint64_t Deaths(const netsim::NetSimReport& report) {
    return static_cast<std::uint64_t>(
        std::count_if(report.nodes.begin(), report.nodes.end(),
                      [](const netsim::NodeSimStats& s) { return !s.alive; }));
  }

  void Check(const netsim::NetSimReport& report, const Built& built,
             OpResult& out) const {
    if (!report.Conserved()) {
      Fail(out, 1, "packet conservation violated");
      return;
    }
    if (report.events == 0 || report.packets.generated == 0 ||
        report.packets.delivered == 0) {
      Fail(out, 1, "replication did no work");
      return;
    }
    if (report.nodes.size() != shape_.nodes) {
      Fail(out, 1, "report covers the wrong number of nodes");
      return;
    }
    for (std::size_t idx : built.staged) {
      if (report.nodes[idx].alive) {
        Fail(out, 1, "staged node " + std::to_string(idx) +
                         " outlived its battery");
        return;
      }
    }
    if (shape_.leach != (report.elections > 0)) {
      Fail(out, 1, "elections do not match the routing mode");
    }
  }

  void Record(const netsim::NetSimReport& report, const Built& built,
              bool traced, OpResult& out) const {
    const std::uint64_t deaths = Deaths(report);
    out.counts = {{"events", report.events},
                  {"deaths", deaths},
                  {"repairs", report.routing_repairs},
                  {"elections", report.elections},
                  {"rounds", report.rounds},
                  {"generated", report.packets.generated},
                  {"delivered", report.packets.delivered},
                  {"forwarded", report.packets.forwarded},
                  {"dropped", report.packets.TotalDropped()},
                  {"in_flight", report.in_flight}};
    out.layer["routing.repairs"] = static_cast<double>(report.routing_repairs);
    out.layer["routing.repair_s"] = report.routing_repair_s;
    out.layer["cluster.elections"] = static_cast<double>(report.elections);
    out.layer["cluster.rounds"] = static_cast<double>(report.rounds);
    out.layer["cluster.election_s"] = report.election_s;
    out.layer["cluster.assign_s"] = report.assign_s;
    out.layer["cluster.cascade_ratio"] =
        static_cast<double>(deaths) / static_cast<double>(built.staged.size());
    out.layer["netsim.delivery_ratio"] = report.DeliveryRatio();
    if (!traced) return;
    const obs::MetricsSnapshot& m = report.metrics;
    const auto counter = [&](const char* name) {
      const auto it = m.counters.find(name);
      return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto gauge = [&](const char* name) {
      const auto it = m.gauges.find(name);
      return it == m.gauges.end() ? 0.0 : it->second;
    };
    out.layer["des.events_fired"] = counter("des.events.fired");
    out.layer["des.events_scheduled"] = counter("des.events.scheduled");
    out.layer["des.events_cancelled"] = counter("des.events.cancelled");
    out.layer["des.live_hwm"] = gauge("des.queue.live_hwm");
    out.layer["netsim.packets_generated"] = counter("netsim.packets.generated");
    out.layer["netsim.packets_forwarded"] = counter("netsim.packets.forwarded");
    out.layer["netsim.queue_overflow_drops"] =
        counter("netsim.drops.queue-overflow");
    out.layer["netsim.queue_pool_slots"] = gauge("netsim.queue.pool_slots");
    out.layer["netsim.deaths"] = counter("netsim.deaths");
    if (out.layer["des.events_fired"] != static_cast<double>(report.events)) {
      Fail(out, 1, "metrics snapshot disagrees with the report's event count");
    }
  }

  NetsimShape shape_;
  std::uint64_t seed_;
};

// -------------------------------------------------------- paper sweep

/// Sweep accuracy tolerance against the exact DSPN solution, per state
/// share, in percentage points.  The largest error measured over seeds
/// 1-10 at this replication count is well under half of it.
constexpr double kPointTolerancePp = 1.0;
constexpr std::size_t kReplications = 48;
constexpr double kEnergyHorizonS = 1000.0;

class PaperSweepWorkload final : public Workload {
 public:
  explicit PaperSweepWorkload(std::uint64_t seed) : seed_(seed) {}

  void SetupOnce() override { Models m = BuildModels(); }

  OpResult RunOnce(Tracer* tracer, std::uint64_t op) override {
    OpResult out;
    ScopedSpan root(tracer, "sweep", op);
    Models m = BuildModels();
    const TimedModel sim(*m.sim, "core.simulation.eval", tracer, op);
    const TimedModel markov(*m.markov, "core.markov.eval", tracer, op);
    const TimedModel pn(*m.pn, "core.petri_net.eval", tracer, op);
    const TimedModel exact(*m.exact, "core.dspn_exact.eval", tracer, op);

    out.start_s = MonotonicSeconds();
    const core::DeltaTables tables = core::ComputeDeltaTables(
        sim, markov, pn, m.base, m.puds, m.pdts, m.table, kEnergyHorizonS);
    for (double pud : m.puds) {
      core::CpuParams params = m.base;
      params.power_up_delay = pud;
      core::SweepPowerDownThreshold(exact, params, m.pdts, m.table,
                                    kEnergyHorizonS);
    }
    out.wall_s = MonotonicSeconds() - out.start_s;

    Check(m, tables, sim, markov, pn, exact, out);
    return out;
  }

  std::map<std::string, std::string> Describe() const override {
    return {{"puds", "0.001,0.3,10"},
            {"pdt_points", "11"},
            {"replications", std::to_string(kReplications)},
            {"sim_time_s", "1000"},
            {"tolerance_pp", std::to_string(kPointTolerancePp)}};
  }

 private:
  struct Models {
    core::CpuParams base;
    std::vector<double> puds;
    std::vector<double> pdts;
    energy::PowerStateTable table;
    std::unique_ptr<core::CpuEnergyModel> sim, markov, pn, exact;
  };

  /// Set-up: the paper's Table 2 parameters, the PUD x PDT grid, the
  /// PXA271 power table and the four models.  The seed drives the
  /// replication streams of the two simulation models; one thread.
  Models BuildModels() const {
    Models m;
    m.base.arrival_rate = 1.0;
    m.base.service_rate = 10.0;
    m.puds = {0.001, 0.3, 10.0};
    m.pdts = core::PaperPdtGrid(11);
    m.table = energy::Pxa271();
    core::EvalConfig eval;
    eval.sim_time = 1000.0;
    eval.replications = kReplications;
    eval.seed = seed_;
    eval.threads = 1;
    m.sim = std::make_unique<core::SimulationCpuModel>(eval);
    m.markov = std::make_unique<core::MarkovCpuModel>();
    m.pn = std::make_unique<core::PetriNetCpuModel>(eval);
    m.exact = std::make_unique<core::DspnExactCpuModel>();
    return m;
  }

  static double MaxShareDiffPp(const energy::StateShares& a,
                               const energy::StateShares& b) {
    return 100.0 * std::max({std::abs(a.standby - b.standby),
                             std::abs(a.powerup - b.powerup),
                             std::abs(a.idle - b.idle),
                             std::abs(a.active - b.active)});
  }

  /// Per sweep point: every model's shares are valid, and simulation and
  /// Petri net agree with the exact DSPN within kPointTolerancePp.  Per
  /// PUD row (Table 4's shape): |Sim - Markov| grows with PUD and
  /// |Sim - PN| stays within the tolerance; a bad row fails its points.
  void Check(const Models& m, const core::DeltaTables& tables,
             const TimedModel& sim, const TimedModel& markov,
             const TimedModel& pn, const TimedModel& exact,
             OpResult& out) const {
    const std::size_t points = m.puds.size() * m.pdts.size();
    out.attempted = points;
    const std::vector<const TimedModel*> all = {&sim, &markov, &pn, &exact};
    for (const TimedModel* model : all) {
      if (model->Calls().size() != points) {
        Fail(out, points, model->Name() + " was evaluated " +
                              std::to_string(model->Calls().size()) +
                              " times, expected " + std::to_string(points));
        return;
      }
    }
    Digest digest;
    double pn_err = 0.0;
    double sim_err = 0.0;
    for (std::size_t i = 0; i < points; ++i) {
      const core::CpuParams& p = exact.Calls()[i].params;
      std::string bad;
      for (const TimedModel* model : all) {
        const TimedModel::Call& c = model->Calls()[i];
        if (c.params.power_up_delay != p.power_up_delay ||
            c.params.power_down_threshold != p.power_down_threshold) {
          bad = model->Name() + " evaluated a different point";
          break;
        }
        try {
          c.shares.Validate();
        } catch (const std::exception& e) {
          bad = model->Name() + ": " + e.what();
          break;
        }
        digest.Add(c.shares.standby);
        digest.Add(c.shares.powerup);
        digest.Add(c.shares.idle);
        digest.Add(c.shares.active);
      }
      const energy::StateShares& ref = exact.Calls()[i].shares;
      const double e_sim = MaxShareDiffPp(sim.Calls()[i].shares, ref);
      const double e_pn = MaxShareDiffPp(pn.Calls()[i].shares, ref);
      sim_err = std::max(sim_err, e_sim);
      pn_err = std::max(pn_err, e_pn);
      if (bad.empty() && (e_sim > kPointTolerancePp || e_pn > kPointTolerancePp)) {
        bad = "sim error " + std::to_string(e_sim) + " pp, PN error " +
              std::to_string(e_pn) + " pp over the " +
              std::to_string(kPointTolerancePp) + " pp tolerance";
      }
      if (!bad.empty()) {
        Fail(out, 1, "PUD " + std::to_string(p.power_up_delay) + " PDT " +
                         std::to_string(p.power_down_threshold) + ": " + bad);
      }
    }
    const std::vector<core::DeltaRow>& rows = tables.share_deltas;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const bool grows = k == 0 || rows[k].sim_markov > rows[k - 1].sim_markov;
      if (!grows || rows[k].sim_pn > kPointTolerancePp) {
        Fail(out, m.pdts.size(),
             "Table 4 row PUD " + std::to_string(rows[k].power_up_delay) +
                 (grows ? ": |Sim-PN| over tolerance"
                        : ": |Sim-Markov| does not grow with PUD"));
      }
    }
    out.counts = {{"evaluations", 4 * points}, {"shares_digest", digest.Value()}};
    out.layer["core.evaluations"] = static_cast<double>(4 * points);
    out.layer["pn_error_pp"] = pn_err;
    out.layer["core.sim_error_pp"] = sim_err;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "flat-relay") {
    return std::make_unique<NetsimWorkload>(NetsimShape{30000, 600.0, false},
                                            seed);
  }
  if (name == "leach-cascade") {
    return std::make_unique<NetsimWorkload>(NetsimShape{40000, 2000.0, true},
                                            seed);
  }
  if (name == "paper-sweep") {
    return std::make_unique<PaperSweepWorkload>(seed);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void Fail(OpResult& result, std::uint64_t units, const std::string& what) {
  result.failed = std::min(result.attempted, result.failed + units);
  result.failures.push_back(what);
}

}  // namespace perfbench
