// Enabling rules and the token-moving Fire primitive — shared by the
// token-game simulator, the reachability generator and the CTMC solver so
// all engines agree on semantics by construction.  CompiledNet is the
// same rule over flat per-transition arc tables, for the engines that
// test and fire transitions millions of times per evaluation.
#pragma once

#include <cstdint>
#include <vector>

#include "petri/net.hpp"
#include "util/rng.hpp"

namespace wsn::petri {

/// Standard EDSPN enabling: every input arc satisfied
/// (m[p] >= multiplicity) and every inhibitor arc satisfied
/// (m[p] < multiplicity).
bool IsEnabled(const PetriNet& net, TransitionId t, const Marking& m);

/// Fire `t` in `m` (must be enabled): consume input arcs, produce output
/// arcs.  Inhibitor arcs move no tokens.
Marking Fire(const PetriNet& net, TransitionId t, const Marking& m);

/// In-place variant.
void FireInPlace(const PetriNet& net, TransitionId t, Marking& m);

/// All enabled transitions (any kind) in `m`, ascending id.
std::vector<TransitionId> EnabledTransitions(const PetriNet& net,
                                             const Marking& m);

/// Enabled immediate transitions of maximal priority in `m` (the conflict
/// set that competes by weight).  Empty iff the marking is tangible.
std::vector<TransitionId> EnabledImmediateConflictSet(const PetriNet& net,
                                                      const Marking& m);

/// Enabled timed transitions in `m` (only meaningful for tangible m).
std::vector<TransitionId> EnabledTimedTransitions(const PetriNet& net,
                                                  const Marking& m);

/// True iff no immediate transition is enabled.
bool IsTangible(const PetriNet& net, const Marking& m);

/// Pick one transition from a non-empty conflict set proportionally to
/// transition weights.
TransitionId SampleByWeight(const PetriNet& net,
                            const std::vector<TransitionId>& conflict_set,
                            util::Rng& rng);

/// A net's enabling and firing rule compiled to flat arrays: per
/// transition its input, inhibitor and output (place, multiplicity)
/// arcs, its delay and its priority, plus the ascending lists of timed
/// and immediate transitions.  Every operation agrees with the free
/// functions above (IsEnabled, FireInPlace, EnabledImmediateConflictSet)
/// on every net and marking.  Compile once per evaluation; the net must
/// outlive the compiled form and not change while it is in use.
class CompiledNet {
 public:
  explicit CompiledNet(const PetriNet& net);

  const PetriNet& Net() const noexcept { return *net_; }
  /// Timed transitions, ascending id.
  const std::vector<TransitionId>& Timed() const noexcept { return timed_; }
  /// Immediate transitions, ascending id.
  const std::vector<TransitionId>& Immediate() const noexcept {
    return immediate_;
  }
  /// Delay of timed transition `t`.
  const util::Distribution& Delay(TransitionId t) const {
    return *table_[t].delay;
  }

  bool Enabled(TransitionId t, const Marking& m) const {
    const Entry& e = table_[t];
    for (std::uint32_t i = e.input; i < e.inhibitor; ++i) {
      if (m[arcs_[i].place] < arcs_[i].multiplicity) return false;
    }
    for (std::uint32_t i = e.inhibitor; i < e.output; ++i) {
      if (m[arcs_[i].place] >= arcs_[i].multiplicity) return false;
    }
    return true;
  }

  /// Fire `t` in `m` in place; throws when `t` is disabled.
  void Fire(TransitionId t, Marking& m) const {
    util::Require(Enabled(t, m), "firing a disabled transition");
    const Entry& e = table_[t];
    for (std::uint32_t i = e.input; i < e.inhibitor; ++i) {
      m[arcs_[i].place] -= arcs_[i].multiplicity;
    }
    for (std::uint32_t i = e.output; i < e.end; ++i) {
      m[arcs_[i].place] += arcs_[i].multiplicity;
    }
  }

  /// Enabled immediate transitions of maximal priority in `m`, ascending
  /// id, written into `out` (cleared first, capacity kept).  Empty iff
  /// the marking is tangible.
  void ImmediateConflictSet(const Marking& m,
                            std::vector<TransitionId>& out) const;

 private:
  struct FlatArc {
    std::uint32_t place;
    std::uint32_t multiplicity;
  };
  /// Arcs [input, inhibitor) are inputs, [inhibitor, output) inhibitors
  /// and [output, end) outputs, each in the net's arc order.
  struct Entry {
    std::uint32_t input = 0, inhibitor = 0, output = 0, end = 0;
    int priority = 0;
    const util::Distribution* delay = nullptr;
  };

  const PetriNet* net_;
  std::vector<FlatArc> arcs_;
  std::vector<Entry> table_;
  std::vector<TransitionId> timed_;
  std::vector<TransitionId> immediate_;
};

}  // namespace wsn::petri
