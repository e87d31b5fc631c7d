#include "petri/dspn_solver.hpp"

#include <cmath>
#include <deque>
#include <unordered_map>

#include "linalg/iterative.hpp"
#include "linalg/sparse.hpp"
#include "petri/enabling.hpp"
#include "util/error.hpp"

namespace wsn::petri {

using util::ModelError;
using util::Require;

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Poisson(a) pmf values 0..K where K is chosen so the truncated mass is
/// below eps.  Computed in log space for stability at large a.
std::vector<double> PoissonWeights(double a, double eps) {
  std::vector<double> w;
  if (a <= 0.0) {
    w.push_back(1.0);
    return w;
  }
  const std::size_t k_cap =
      static_cast<std::size_t>(a + 12.0 * std::sqrt(a) + 60.0);
  double log_w = -a;
  double cumulative = 0.0;
  for (std::size_t k = 0; k <= k_cap; ++k) {
    const double v = std::exp(log_w);
    w.push_back(v);
    cumulative += v;
    if (cumulative >= 1.0 - eps && k >= static_cast<std::size_t>(a)) break;
    log_w += std::log(a) - std::log(static_cast<double>(k + 1));
  }
  return w;
}

struct TransitionInfo {
  bool is_det = false;
  double rate = 0.0;   ///< exponential rate
  double delay = 0.0;  ///< deterministic delay
};

/// `net` after its structural checks, so their ModelError comes first.
const PetriNet& Validated(const PetriNet& net) {
  net.Validate();
  return net;
}

class DspnSolver {
 public:
  DspnSolver(const PetriNet& net, const DspnOptions& opts)
      : net_(net), compiled_(Validated(net)), opts_(opts) {
    ClassifyTransitions();
  }

  SpnSteadyState Solve() {
    ExploreTangibleSpace();
    BuildEmbeddedChain();
    return Combine();
  }

 private:
  void ClassifyTransitions() {
    info_.resize(net_.TransitionCount());
    for (const TransitionId t : compiled_.Timed()) {
      const Transition& tr = net_.GetTransition(t);
      const auto& v = tr.delay->AsVariant();
      if (const auto* e = std::get_if<util::Exponential>(&v)) {
        info_[t].rate = e->rate;
      } else if (const auto* d = std::get_if<util::Deterministic>(&v)) {
        Require(d->value > 0.0,
                "DSPN solver: deterministic delay must be > 0 "
                "(zero-delay transitions should be immediate)");
        info_[t].is_det = true;
        info_[t].delay = d->value;
      } else {
        throw ModelError(
            "DSPN solver supports exponential and deterministic delays "
            "only; transition '" + tr.name + "' has " +
            tr.delay->Describe());
      }
    }
  }

  bool ExceedsTruncation(const Marking& m) const {
    if (opts_.truncate_tokens == 0) return false;
    for (std::uint32_t v : m) {
      if (v > opts_.truncate_tokens) return true;
    }
    return false;
  }

  std::size_t Intern(const Marking& m, std::deque<std::size_t>& frontier) {
    auto [it, inserted] = index_.emplace(m, markings_.size());
    if (inserted) {
      if (markings_.size() >= opts_.reach.max_markings) {
        throw ModelError("DSPN tangible space exceeds marking cap");
      }
      markings_.push_back(m);
      successors_.resize(markings_.size() * net_.TransitionCount());
      frontier.push_back(it->second);
    }
    return it->second;
  }

  /// The tangible successors of firing timed transition `t` in state `s`.
  struct Successors {
    bool resolved = false;
    /// Distribution over *interned, truncation-respecting* states.
    std::vector<std::pair<std::size_t, double>> to;
    /// Truncated mass, which callers convert into self-loop probability.
    double dropped = 0.0;
  };

  /// Successors of (s, t), resolved on the first call and memoized: the
  /// exploration, every deterministic window and the embedded chain share
  /// one successor relation.  First calls intern new states into
  /// `frontier`; the returned reference is valid until the next call.
  const Successors& FireToStates(std::size_t s, TransitionId t,
                                 std::deque<std::size_t>& frontier) {
    const std::size_t key = s * net_.TransitionCount() + t;
    if (successors_[key].resolved) return successors_[key];
    Successors out;
    out.resolved = true;
    Marking fired = markings_[s];
    compiled_.Fire(t, fired);
    const auto dist = ResolveVanishingDistribution(net_, fired, opts_.reach);
    for (const auto& [tm, tp] : dist) {
      if (ExceedsTruncation(tm)) {
        out.dropped += tp;
        continue;
      }
      out.to.emplace_back(Intern(tm, frontier), tp);
    }
    successors_[key] = std::move(out);
    return successors_[key];
  }

  void ExploreTangibleSpace() {
    std::deque<std::size_t> frontier;
    const auto init =
        ResolveVanishingDistribution(net_, net_.InitialMarking(), opts_.reach);
    for (const auto& [m, p] : init) {
      (void)p;
      Require(!ExceedsTruncation(m), "initial marking exceeds truncation");
      Intern(m, frontier);
    }
    while (!frontier.empty()) {
      const std::size_t cur = frontier.front();
      frontier.pop_front();
      for (const TransitionId t : compiled_.Timed()) {
        if (compiled_.Enabled(t, markings_[cur])) {
          FireToStates(cur, t, frontier);
        }
      }
    }

    // Classify states and check the DSPN solvability condition.
    det_of_state_.assign(markings_.size(), kNone);
    for (std::size_t s = 0; s < markings_.size(); ++s) {
      std::size_t det_count = 0;
      bool any_timed = false;
      for (const TransitionId t : compiled_.Timed()) {
        if (!compiled_.Enabled(t, markings_[s])) continue;
        any_timed = true;
        if (info_[t].is_det) {
          det_of_state_[s] = t;
          ++det_count;
        }
      }
      if (det_count > 1) {
        throw ModelError(
            "DSPN solvability violated: more than one deterministic "
            "transition enabled in a reachable tangible marking");
      }
      if (!any_timed) {
        throw ModelError(
            "DSPN solver: reachable dead tangible marking (the embedded "
            "chain would absorb); steady state is degenerate");
      }
    }
  }

  /// Subordinated-CTMC transient analysis for a deterministic window.
  struct SubordinatedResult {
    std::vector<std::size_t> live;        ///< global state ids
    std::vector<double> at_tau;           ///< distribution over `live` at tau
    std::vector<double> sojourn;          ///< expected time per live state
    std::vector<std::pair<std::size_t, double>> exits;  ///< absorbed mass
    double self_loop = 0.0;  ///< truncated mass folded back to the source
  };

  SubordinatedResult AnalyzeDeterministicWindow(std::size_t source,
                                                TransitionId det) {
    const double tau = info_[det].delay;
    SubordinatedResult result;

    // BFS over live states (deterministic transition stays enabled).
    std::unordered_map<std::size_t, std::size_t> live_index;
    auto live_id = [&](std::size_t global) {
      auto [it, inserted] = live_index.emplace(global, result.live.size());
      if (inserted) result.live.push_back(global);
      return it->second;
    };

    struct Edge {
      std::size_t from;  // live index
      std::size_t to;    // live index, or kNone for exit
      std::size_t exit_global = kNone;
      double rate;
    };
    std::vector<Edge> edges;

    std::deque<std::size_t> grow;  // Intern frontier; stays empty (the
                                   // tangible space is already closed)
    std::deque<std::size_t> work;
    live_id(source);
    work.push_back(source);
    std::unordered_map<std::size_t, bool> visited;
    visited[source] = true;
    while (!work.empty()) {
      const std::size_t g = work.front();
      work.pop_front();
      const std::size_t li = live_id(g);
      for (const TransitionId t : compiled_.Timed()) {
        if (info_[t].is_det || !compiled_.Enabled(t, markings_[g])) continue;
        // Truncation-dropped mass = blocked firing: treat as the firing
        // not happening (rate reduced); approximate by scaling the edge.
        for (const auto& [gz, p] : FireToStates(g, t, grow).to) {
          Edge e;
          e.from = li;
          e.rate = info_[t].rate * p;
          if (det_of_state_[gz] == det) {
            e.to = live_id(gz);
            if (!visited[gz]) {
              visited[gz] = true;
              work.push_back(gz);
            }
          } else {
            e.to = kNone;
            e.exit_global = gz;
          }
          edges.push_back(e);
        }
      }
    }

    const std::size_t n_live = result.live.size();
    // Collect exits with stable indices.
    std::unordered_map<std::size_t, std::size_t> exit_index;
    std::vector<std::size_t> exit_globals;
    for (const Edge& e : edges) {
      if (e.to == kNone) {
        auto [it, inserted] =
            exit_index.emplace(e.exit_global, exit_globals.size());
        if (inserted) exit_globals.push_back(e.exit_global);
        (void)it;
      }
    }
    const std::size_t n_exit = exit_globals.size();
    const std::size_t n_total = n_live + n_exit;

    // Uniformization rate: max exit rate among live states.
    std::vector<double> exit_rate(n_live, 0.0);
    for (const Edge& e : edges) exit_rate[e.from] += e.rate;
    double big_lambda = 0.0;
    for (double r : exit_rate) big_lambda = std::max(big_lambda, r);

    result.at_tau.assign(n_live, 0.0);
    result.sojourn.assign(n_live, 0.0);

    if (big_lambda <= 0.0) {
      // No competing exponential activity: the window passes undisturbed.
      result.at_tau[0] = 1.0;
      result.sojourn[0] = tau;
      return result;
    }

    // Stochastic matrix of the uniformized chain over live+exit states.
    linalg::CooBuilder coo(n_total, n_total);
    for (std::size_t x = 0; x < n_live; ++x) {
      coo.Add(x, x, 1.0 - exit_rate[x] / big_lambda);
    }
    for (const Edge& e : edges) {
      const std::size_t to = (e.to == kNone)
                                 ? n_live + exit_index[e.exit_global]
                                 : e.to;
      coo.Add(e.from, to, e.rate / big_lambda);
    }
    for (std::size_t x = n_live; x < n_total; ++x) {
      coo.Add(x, x, 1.0);  // exits absorb
    }
    const linalg::CsrMatrix p(coo);

    const double a = big_lambda * tau;
    const std::vector<double> pois =
        PoissonWeights(a, opts_.uniformization_epsilon);

    std::vector<double> v(n_total, 0.0);
    v[0] = 1.0;  // live_id(source) == 0 by construction
    std::vector<double> final_dist(n_total, 0.0);
    double cum = 0.0;
    for (std::size_t k = 0; k < pois.size(); ++k) {
      const double w = pois[k];
      for (std::size_t i = 0; i < n_total; ++i) final_dist[i] += w * v[i];
      cum += w;
      // Accumulated sojourn weight for step k: (1 - CumPois_k)/Lambda.
      const double sw = (1.0 - cum) / big_lambda;
      if (sw > 0.0) {
        for (std::size_t x = 0; x < n_live; ++x) {
          result.sojourn[x] += sw * v[x];
        }
      }
      if (k + 1 < pois.size()) {
        v = p.ApplyTransposed(v);
      }
    }
    // Fold the (tiny) truncated tail of the series into the last vector.
    const double tail = std::max(0.0, 1.0 - cum);
    for (std::size_t i = 0; i < n_total; ++i) final_dist[i] += tail * v[i];

    for (std::size_t x = 0; x < n_live; ++x) {
      result.at_tau[x] = final_dist[x];
    }
    for (std::size_t e = 0; e < n_exit; ++e) {
      if (final_dist[n_live + e] > 0.0) {
        result.exits.emplace_back(exit_globals[e], final_dist[n_live + e]);
      }
    }
    return result;
  }

  void BuildEmbeddedChain() {
    const std::size_t n = markings_.size();
    const std::size_t nt = net_.TransitionCount();
    emc_rows_.assign(n, {});
    sojourn_.assign(n, {});
    duration_.assign(n, 0.0);
    firings_.assign(n * nt, 0.0);
    std::deque<std::size_t> grow;  // space is closed; Intern won't grow it

    for (std::size_t s = 0; s < n; ++s) {
      const Marking& m = markings_[s];
      const TransitionId det = det_of_state_[s];
      if (det == kNone) {
        // Plain CTMC step.
        double total = 0.0;
        for (const TransitionId t : compiled_.Timed()) {
          if (compiled_.Enabled(t, m)) total += info_[t].rate;
        }
        duration_[s] = 1.0 / total;
        sojourn_[s].emplace_back(s, 1.0 / total);
        double self_mass = 0.0;
        for (const TransitionId t : compiled_.Timed()) {
          if (!compiled_.Enabled(t, m)) continue;
          const double p_fire = info_[t].rate / total;
          firings_[s * nt + t] += p_fire;
          const Successors& next = FireToStates(s, t, grow);
          for (const auto& [z, pz] : next.to) {
            emc_rows_[s].emplace_back(z, p_fire * pz);
          }
          self_mass += p_fire * next.dropped;
        }
        if (self_mass > 0.0) emc_rows_[s].emplace_back(s, self_mass);
      } else {
        // Deterministic window.
        const SubordinatedResult sub = AnalyzeDeterministicWindow(s, det);
        double step_time = 0.0;
        for (std::size_t x = 0; x < sub.live.size(); ++x) {
          const double lx = sub.sojourn[x];
          if (lx <= 0.0) continue;
          step_time += lx;
          sojourn_[s].emplace_back(sub.live[x], lx);
          // Expected exponential firings while dwelling in live state x.
          const Marking& mx = markings_[sub.live[x]];
          for (const TransitionId t : compiled_.Timed()) {
            if (!info_[t].is_det && compiled_.Enabled(t, mx)) {
              firings_[s * nt + t] += info_[t].rate * lx;
            }
          }
        }
        duration_[s] = step_time;

        // Survived to tau: the deterministic transition fires.
        double self_mass = 0.0;
        for (std::size_t x = 0; x < sub.live.size(); ++x) {
          const double fx = sub.at_tau[x];
          if (fx <= 0.0) continue;
          firings_[s * nt + det] += fx;
          const Successors& next = FireToStates(sub.live[x], det, grow);
          for (const auto& [z, pz] : next.to) {
            emc_rows_[s].emplace_back(z, fx * pz);
          }
          self_mass += fx * next.dropped;
        }
        // Pre-empted: the embedded chain resumes at the exit marking.
        for (const auto& [z, pz] : sub.exits) {
          emc_rows_[s].emplace_back(z, pz);
        }
        if (self_mass > 0.0) emc_rows_[s].emplace_back(s, self_mass);
      }
    }
    Require(grow.empty(), "internal: tangible space was not closed");
  }

  SpnSteadyState Combine() {
    const std::size_t n = markings_.size();
    const std::size_t nt = net_.TransitionCount();

    // Stationary vector of the embedded DTMC via pi (P - I) = 0.
    linalg::CooBuilder coo(n, n);
    for (std::size_t s = 0; s < n; ++s) {
      double row_sum = 0.0;
      for (const auto& [z, p] : emc_rows_[s]) {
        coo.Add(s, z, p);
        row_sum += p;
      }
      coo.Add(s, s, -1.0);
      if (std::abs(row_sum - 1.0) > 1e-9) {
        throw ModelError("DSPN embedded chain row does not sum to 1 (" +
                         std::to_string(row_sum) + ")");
      }
    }
    linalg::IterativeOptions iter;
    iter.tolerance = 1e-13;
    const auto emc = linalg::StationaryGaussSeidel(linalg::CsrMatrix(coo),
                                                   iter);
    if (!emc.converged) {
      throw ModelError("DSPN embedded-chain solve did not converge");
    }
    const std::vector<double>& pi = emc.solution;

    // Conversion: time-stationary probability of each tangible marking.
    std::vector<double> time_weight(n, 0.0);
    double total_time = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      for (const auto& [x, w] : sojourn_[s]) {
        time_weight[x] += pi[s] * w;
      }
      total_time += pi[s] * duration_[s];
    }
    Require(total_time > 0.0, "DSPN: zero mean cycle time");

    SpnSteadyState out;
    out.mean_tokens.assign(net_.PlaceCount(), 0.0);
    out.prob_nonempty.assign(net_.PlaceCount(), 0.0);
    out.throughput.assign(nt, 0.0);
    out.tangible_states = n;
    out.expanded_states = n;
    for (std::size_t x = 0; x < n; ++x) {
      const double p = time_weight[x] / total_time;
      for (std::size_t pl = 0; pl < net_.PlaceCount(); ++pl) {
        out.mean_tokens[pl] += p * static_cast<double>(markings_[x][pl]);
        if (markings_[x][pl] > 0) out.prob_nonempty[pl] += p;
      }
    }
    for (TransitionId t = 0; t < nt; ++t) {
      double expected_firings = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        expected_firings += pi[s] * firings_[s * nt + t];
      }
      out.throughput[t] = expected_firings / total_time;
    }
    return out;
  }

  const PetriNet& net_;
  const CompiledNet compiled_;
  const DspnOptions& opts_;
  std::vector<TransitionInfo> info_;

  std::vector<Marking> markings_;
  std::unordered_map<Marking, std::size_t, MarkingHash> index_;
  std::vector<Successors> successors_;  ///< per (state, transition)
  std::vector<std::size_t> det_of_state_;

  std::vector<std::vector<std::pair<std::size_t, double>>> emc_rows_;
  std::vector<std::vector<std::pair<std::size_t, double>>> sojourn_;
  std::vector<double> duration_;
  std::vector<double> firings_;
};

}  // namespace

SpnSteadyState SolveDspnExact(const PetriNet& net, const DspnOptions& opts) {
  DspnSolver solver(net, opts);
  return solver.Solve();
}

}  // namespace wsn::petri
