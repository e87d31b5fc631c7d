// Enabling semantics: multiplicities, inhibitor arcs, firing, conflict
// sets with priorities and weighted sampling; the compiled rule checked
// against the reference functions on a corpus of nets.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/cpu_petri_net.hpp"
#include "petri/enabling.hpp"
#include "petri/simulation.hpp"
#include "petri/standard_nets.hpp"
#include "util/error.hpp"

namespace wsn::petri {
namespace {

TEST(Enabling, InputMultiplicity) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, p, 3);

  Marking m{2};
  EXPECT_FALSE(IsEnabled(net, t, m));
  m[0] = 3;
  EXPECT_TRUE(IsEnabled(net, t, m));
}

TEST(Enabling, InhibitorBlocksAtThreshold) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 0);
  const PlaceId src = net.AddPlace("src", 1);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, src);
  net.AddInhibitorArc(t, p, 2);

  EXPECT_TRUE(IsEnabled(net, t, {0, 1}));
  EXPECT_TRUE(IsEnabled(net, t, {1, 1}));
  EXPECT_FALSE(IsEnabled(net, t, {2, 1}));
  EXPECT_FALSE(IsEnabled(net, t, {5, 1}));
}

TEST(Enabling, FireMovesTokens) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 0);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, a, 2);
  net.AddOutputArc(t, b, 3);

  const Marking next = Fire(net, t, {5, 1});
  EXPECT_EQ(next[a], 3u);
  EXPECT_EQ(next[b], 4u);
}

TEST(Enabling, FireDisabledThrows) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, a);
  EXPECT_THROW(Fire(net, t, {0}), util::InvalidArgument);
}

TEST(Enabling, SelfLoopKeepsToken) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const PlaceId out = net.AddPlace("out", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, p);
  net.AddOutputArc(t, p);
  net.AddOutputArc(t, out);
  const Marking next = Fire(net, t, net.InitialMarking());
  EXPECT_EQ(next[p], 1u);
  EXPECT_EQ(next[out], 1u);
}

TEST(ConflictSet, HighestPriorityWins) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId low = net.AddImmediateTransition("low", 1);
  const TransitionId high = net.AddImmediateTransition("high", 5);
  const TransitionId timed = net.AddExponentialTransition("timed", 1.0);
  net.AddInputArc(low, p);
  net.AddInputArc(high, p);
  net.AddInputArc(timed, p);

  const auto conflict = EnabledImmediateConflictSet(net, {1});
  ASSERT_EQ(conflict.size(), 1u);
  EXPECT_EQ(conflict[0], high);
  EXPECT_FALSE(IsTangible(net, {1}));
  EXPECT_TRUE(IsTangible(net, {0}));
}

TEST(ConflictSet, EqualPriorityGroups) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId a = net.AddImmediateTransition("a", 2, 1.0);
  const TransitionId b = net.AddImmediateTransition("b", 2, 3.0);
  const TransitionId c = net.AddImmediateTransition("c", 1, 1.0);
  net.AddInputArc(a, p);
  net.AddInputArc(b, p);
  net.AddInputArc(c, p);

  const auto conflict = EnabledImmediateConflictSet(net, {1});
  ASSERT_EQ(conflict.size(), 2u);
  EXPECT_EQ(conflict[0], a);
  EXPECT_EQ(conflict[1], b);
}

TEST(ConflictSet, WeightedSamplingMatchesProportions) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId a = net.AddImmediateTransition("a", 1, 1.0);
  const TransitionId b = net.AddImmediateTransition("b", 1, 3.0);
  net.AddInputArc(a, p);
  net.AddInputArc(b, p);

  util::Rng rng(77);
  const std::vector<TransitionId> conflict{a, b};
  int picked_b = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (SampleByWeight(net, conflict, rng) == b) ++picked_b;
  }
  EXPECT_NEAR(static_cast<double>(picked_b) / n, 0.75, 0.01);
}

TEST(EnabledLists, TimedVsImmediate) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId imm = net.AddImmediateTransition("imm", 1);
  const TransitionId exp = net.AddExponentialTransition("exp", 1.0);
  net.AddInputArc(imm, p);
  net.AddInputArc(exp, p);

  const auto all = EnabledTransitions(net, {1});
  EXPECT_EQ(all.size(), 2u);
  const auto timed = EnabledTimedTransitions(net, {1});
  ASSERT_EQ(timed.size(), 1u);
  EXPECT_EQ(timed[0], exp);
  EXPECT_TRUE(EnabledTransitions(net, {0}).empty());
}

/// A closed three-token net with every arc feature the enabling rule
/// has: an equal-priority weighted conflict (left/right) shadowing a
/// lower-priority immediate (spill), an input arc of multiplicity 3
/// (batch), an inhibitor of multiplicity 2 (gen stops while b >= 2) and
/// a deterministic and two exponential timed transitions.
PetriNet ConflictNet() {
  PetriNet net;
  const PlaceId in = net.AddPlace("in", 3);
  const PlaceId buf = net.AddPlace("buf", 0);
  const PlaceId a = net.AddPlace("a", 0);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId gen = net.AddExponentialTransition("gen", 1.5);
  net.AddInputArc(gen, in);
  net.AddOutputArc(gen, buf);
  net.AddInhibitorArc(gen, b, 2);
  const TransitionId left = net.AddImmediateTransition("left", 1, 1.0);
  net.AddInputArc(left, buf);
  net.AddOutputArc(left, a);
  const TransitionId right = net.AddImmediateTransition("right", 1, 3.0);
  net.AddInputArc(right, buf);
  net.AddOutputArc(right, b);
  const TransitionId spill = net.AddImmediateTransition("spill", 0, 1.0);
  net.AddInputArc(spill, buf);
  net.AddOutputArc(spill, b);
  const TransitionId batch = net.AddDeterministicTransition("batch", 0.7);
  net.AddInputArc(batch, a, 3);
  net.AddOutputArc(batch, in, 3);
  const TransitionId drain = net.AddExponentialTransition("drain", 0.8);
  net.AddInputArc(drain, b);
  net.AddOutputArc(drain, in);
  return net;
}

std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Every bit of the token game's statistics on the conflict net: the
// weighted draws, the timer resampling order and the per-place token
// accumulation all feed these numbers.
TEST(TokenGame, ConflictNetStatisticsPinned) {
  SimulationConfig config;
  config.horizon = 500.0;
  config.warmup = 20.0;
  config.seed = 99;
  const SimulationResult r = SimulateSpn(ConflictNet(), config);
  std::string out;
  char buf[64];
  for (const double v : r.mean_tokens) {
    std::snprintf(buf, sizeof buf, "%a\n", v);
    out += buf;
  }
  for (const double v : r.mean_tokens_sq) {
    std::snprintf(buf, sizeof buf, "%a\n", v);
    out += buf;
  }
  for (const std::uint64_t f : r.firings) out += std::to_string(f) + "\n";
  EXPECT_EQ(r.total_firings, 991u);
  EXPECT_EQ(Fnv1a64(out), 0x298c56bc9f2d007ull) << out;
}

/// Input multiplicity 2, output multiplicity 3 and a plain inhibitor.
PetriNet MultiplicityNet() {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 2);
  const PlaceId b = net.AddPlace("b", 0);
  const PlaceId guard = net.AddPlace("guard", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, a, 2);
  net.AddOutputArc(t, b, 3);
  net.AddInhibitorArc(t, guard);
  const TransitionId back = net.AddExponentialTransition("back", 1.0);
  net.AddInputArc(back, b, 3);
  net.AddOutputArc(back, a, 2);
  const TransitionId arm = net.AddImmediateTransition("arm", 2);
  net.AddInputArc(arm, b, 2);
  net.AddInhibitorArc(arm, guard);
  net.AddOutputArc(arm, guard);
  net.AddOutputArc(arm, b, 2);
  const TransitionId disarm = net.AddDeterministicTransition("disarm", 1.5);
  net.AddInputArc(disarm, guard);
  return net;
}

/// Deterministic "sleep" that an exponential grab / immediate put pair
/// keeps pre-empting, and a self-loop that never empties its place.
PetriNet PreemptionNet() {
  PetriNet net;
  const PlaceId armed = net.AddPlace("armed", 1);
  const PlaceId off = net.AddPlace("off", 0);
  const PlaceId tmp = net.AddPlace("tmp", 0);
  const TransitionId sleep = net.AddDeterministicTransition("sleep", 1.0);
  net.AddInputArc(sleep, armed);
  net.AddOutputArc(sleep, off);
  const TransitionId wake = net.AddExponentialTransition("wake", 0.5);
  net.AddInputArc(wake, off);
  net.AddOutputArc(wake, armed);
  const TransitionId grab = net.AddExponentialTransition("grab", 1.0);
  net.AddInputArc(grab, armed);
  net.AddOutputArc(grab, tmp);
  const TransitionId put = net.AddImmediateTransition("put", 1);
  net.AddInputArc(put, tmp);
  net.AddOutputArc(put, armed);
  const TransitionId spin = net.AddDeterministicTransition("spin", 0.2);
  net.AddInputArc(spin, armed);
  net.AddOutputArc(spin, armed);
  return net;
}

/// Two immediates in a row behind a weighted fork.
PetriNet ChainNet() {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const PlaceId q = net.AddPlace("q", 0);
  const PlaceId r = net.AddPlace("r", 0);
  const PlaceId s = net.AddPlace("s", 0);
  const TransitionId t1 = net.AddImmediateTransition("t1", 1, 1.0);
  net.AddInputArc(t1, p);
  net.AddOutputArc(t1, q);
  const TransitionId t1b = net.AddImmediateTransition("t1b", 1, 3.0);
  net.AddInputArc(t1b, p);
  net.AddOutputArc(t1b, s);
  const TransitionId t2 = net.AddImmediateTransition("t2", 1);
  net.AddInputArc(t2, q);
  net.AddOutputArc(t2, r);
  const TransitionId timed = net.AddExponentialTransition("timed", 1.0);
  net.AddInputArc(timed, r);
  net.AddOutputArc(timed, p);
  const TransitionId drain = net.AddExponentialTransition("drain", 2.0);
  net.AddInputArc(drain, s);
  net.AddOutputArc(drain, p);
  return net;
}

std::vector<std::pair<std::string, PetriNet>> NetCorpus() {
  std::vector<std::pair<std::string, PetriNet>> nets;
  nets.emplace_back("conflict", ConflictNet());
  nets.emplace_back("multiplicity", MultiplicityNet());
  nets.emplace_back("preemption", PreemptionNet());
  nets.emplace_back("chain", ChainNet());
  nets.emplace_back("mm1k", MakeMm1kNet(1.0, 2.0, 7));
  nets.emplace_back("ping-pong", MakePingPongNet(1.0, 2.0));
  nets.emplace_back("producer-consumer", MakeProducerConsumerNet(1.0, 2.0, 3));
  nets.emplace_back("fork-join", MakeForkJoinNet(3, 1.0));
  nets.emplace_back("shared-resource", MakeSharedResourceNet(3, 1.0, 1.0));
  // The paper's Fig. 3 net, and its variants whose PDT or PUD
  // transition becomes a low-priority immediate.
  for (const auto& [pdt, pud] : std::vector<std::pair<double, double>>{
           {0.5, 0.3}, {0.0, 0.3}, {0.5, 0.0}}) {
    core::CpuParams params;
    params.power_down_threshold = pdt;
    params.power_up_delay = pud;
    nets.emplace_back("cpu pdt=" + std::to_string(pdt) +
                          " pud=" + std::to_string(pud),
                      core::BuildCpuPetriNet(params));
  }
  return nets;
}

/// Compiled Enabled / ImmediateConflictSet / Fire against IsEnabled /
/// EnabledImmediateConflictSet / FireInPlace at one marking.
void ExpectCompiledAgrees(const PetriNet& net, const CompiledNet& compiled,
                          const Marking& m, const std::string& where) {
  std::vector<TransitionId> conflict = {99};  // must be cleared
  compiled.ImmediateConflictSet(m, conflict);
  EXPECT_EQ(conflict, EnabledImmediateConflictSet(net, m)) << where;
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    const bool enabled = IsEnabled(net, t, m);
    ASSERT_EQ(compiled.Enabled(t, m), enabled) << where << " t=" << t;
    Marking want = m;
    Marking got = m;
    if (enabled) {
      FireInPlace(net, t, want);
      compiled.Fire(t, got);
      EXPECT_EQ(got, want) << where << " t=" << t;
    } else {
      EXPECT_THROW(compiled.Fire(t, got), util::InvalidArgument) << where;
    }
  }
}

TEST(CompiledNet, ListsTimedAndImmediateTransitionsAscending) {
  for (const auto& [name, net] : NetCorpus()) {
    const CompiledNet compiled(net);
    std::vector<TransitionId> timed, immediate;
    for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
      (net.GetTransition(t).IsImmediate() ? immediate : timed).push_back(t);
      if (!net.GetTransition(t).IsImmediate()) {
        EXPECT_EQ(&compiled.Delay(t), &*net.GetTransition(t).delay) << name;
      }
    }
    EXPECT_EQ(compiled.Timed(), timed) << name;
    EXPECT_EQ(compiled.Immediate(), immediate) << name;
    EXPECT_EQ(&compiled.Net(), &net);
  }
}

// Random walks through every net's reachable markings: at each step the
// compiled rule must agree with the reference functions, and a weighted
// draw from either conflict set must pick the same transition from the
// same random stream.
TEST(CompiledNet, AgreesWithReferenceOnReachableMarkings) {
  std::size_t weighted_draws = 0;
  for (const auto& [name, net] : NetCorpus()) {
    const CompiledNet compiled(net);
    util::Rng walk(2024);
    for (int run = 0; run < 8; ++run) {
      Marking m = net.InitialMarking();
      for (int step = 0; step < 150; ++step) {
        const std::string where = name + " run " + std::to_string(run) +
                                  " step " + std::to_string(step);
        ExpectCompiledAgrees(net, compiled, m, where);
        if (HasFailure()) return;
        std::vector<TransitionId> conflict;
        compiled.ImmediateConflictSet(m, conflict);
        TransitionId next;
        if (!conflict.empty()) {
          util::Rng a(step), b(step);
          next = SampleByWeight(net, conflict, a);
          EXPECT_EQ(SampleByWeight(net, EnabledImmediateConflictSet(net, m),
                                   b),
                    next)
              << where;
          EXPECT_EQ(a(), b()) << where;  // the same number of draws
          if (conflict.size() >= 2) ++weighted_draws;
        } else {
          const std::vector<TransitionId> enabled = EnabledTransitions(net, m);
          if (enabled.empty()) break;
          next = enabled[util::UniformBelow(walk, enabled.size())];
        }
        FireInPlace(net, next, m);
      }
    }
  }
  EXPECT_GT(weighted_draws, 0u);
}

// Arbitrary markings, reachable or not, around every arc's threshold.
TEST(CompiledNet, AgreesWithReferenceOnArbitraryMarkings) {
  util::Rng rng(7);
  for (const auto& [name, net] : NetCorpus()) {
    const CompiledNet compiled(net);
    for (int i = 0; i < 300; ++i) {
      Marking m(net.PlaceCount());
      for (std::uint32_t& v : m) {
        v = static_cast<std::uint32_t>(util::UniformBelow(rng, 5));
      }
      ExpectCompiledAgrees(net, compiled, m, name + " #" + std::to_string(i));
      if (HasFailure()) return;
    }
  }
}

TEST(CompiledNet, ConflictNetThresholds) {
  const PetriNet net = ConflictNet();
  const CompiledNet compiled(net);
  const TransitionId gen = net.TransitionByName("gen");
  const TransitionId batch = net.TransitionByName("batch");
  // Places: in, buf, a, b.  The inhibitor of multiplicity 2 on b.
  EXPECT_TRUE(compiled.Enabled(gen, {1, 0, 0, 1}));
  EXPECT_FALSE(compiled.Enabled(gen, {1, 0, 0, 2}));
  // The input arc of multiplicity 3 on a.
  EXPECT_FALSE(compiled.Enabled(batch, {0, 0, 2, 0}));
  Marking m = {0, 0, 3, 0};
  compiled.Fire(batch, m);
  EXPECT_EQ(m, (Marking{3, 0, 0, 0}));
  // The equal-priority pair shadows the lower-priority spill.
  std::vector<TransitionId> conflict;
  compiled.ImmediateConflictSet({0, 1, 0, 0}, conflict);
  EXPECT_EQ(conflict, (std::vector<TransitionId>{net.TransitionByName("left"),
                                                 net.TransitionByName(
                                                     "right")}));
}

}  // namespace
}  // namespace wsn::petri
