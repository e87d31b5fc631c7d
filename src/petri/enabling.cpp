#include "petri/enabling.hpp"

#include "util/error.hpp"

namespace wsn::petri {

using util::Require;

bool IsEnabled(const PetriNet& net, TransitionId t, const Marking& m) {
  const Transition& tr = net.GetTransition(t);
  for (const Arc& a : tr.arcs) {
    switch (a.kind) {
      case ArcKind::kInput:
        if (m[a.place] < a.multiplicity) return false;
        break;
      case ArcKind::kInhibitor:
        if (m[a.place] >= a.multiplicity) return false;
        break;
      case ArcKind::kOutput:
        break;
    }
  }
  return true;
}

void FireInPlace(const PetriNet& net, TransitionId t, Marking& m) {
  Require(IsEnabled(net, t, m), "firing a disabled transition");
  const Transition& tr = net.GetTransition(t);
  for (const Arc& a : tr.arcs) {
    if (a.kind == ArcKind::kInput) m[a.place] -= a.multiplicity;
  }
  for (const Arc& a : tr.arcs) {
    if (a.kind == ArcKind::kOutput) m[a.place] += a.multiplicity;
  }
}

Marking Fire(const PetriNet& net, TransitionId t, const Marking& m) {
  Marking out = m;
  FireInPlace(net, t, out);
  return out;
}

std::vector<TransitionId> EnabledTransitions(const PetriNet& net,
                                             const Marking& m) {
  std::vector<TransitionId> out;
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    if (IsEnabled(net, t, m)) out.push_back(t);
  }
  return out;
}

std::vector<TransitionId> EnabledImmediateConflictSet(const PetriNet& net,
                                                      const Marking& m) {
  std::vector<TransitionId> out;
  int best_priority = 0;
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    const Transition& tr = net.GetTransition(t);
    if (!tr.IsImmediate() || !IsEnabled(net, t, m)) continue;
    if (out.empty() || tr.priority > best_priority) {
      out.clear();
      out.push_back(t);
      best_priority = tr.priority;
    } else if (tr.priority == best_priority) {
      out.push_back(t);
    }
  }
  return out;
}

std::vector<TransitionId> EnabledTimedTransitions(const PetriNet& net,
                                                  const Marking& m) {
  std::vector<TransitionId> out;
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    if (net.GetTransition(t).kind == TransitionKind::kTimed &&
        IsEnabled(net, t, m)) {
      out.push_back(t);
    }
  }
  return out;
}

bool IsTangible(const PetriNet& net, const Marking& m) {
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    if (net.GetTransition(t).IsImmediate() && IsEnabled(net, t, m)) {
      return false;
    }
  }
  return true;
}

TransitionId SampleByWeight(const PetriNet& net,
                            const std::vector<TransitionId>& conflict_set,
                            util::Rng& rng) {
  Require(!conflict_set.empty(), "empty conflict set");
  if (conflict_set.size() == 1) return conflict_set.front();
  double total = 0.0;
  for (TransitionId t : conflict_set) {
    total += net.GetTransition(t).weight;
  }
  double u = util::UniformDouble(rng) * total;
  for (TransitionId t : conflict_set) {
    u -= net.GetTransition(t).weight;
    if (u <= 0.0) return t;
  }
  return conflict_set.back();
}

CompiledNet::CompiledNet(const PetriNet& net) : net_(&net) {
  table_.resize(net.TransitionCount());
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    const Transition& tr = net.GetTransition(t);
    Entry& e = table_[t];
    const auto append = [&](ArcKind kind) {
      for (const Arc& a : tr.arcs) {
        if (a.kind != kind) continue;
        arcs_.push_back({static_cast<std::uint32_t>(a.place), a.multiplicity});
      }
      return static_cast<std::uint32_t>(arcs_.size());
    };
    e.input = static_cast<std::uint32_t>(arcs_.size());
    e.inhibitor = append(ArcKind::kInput);
    e.output = append(ArcKind::kInhibitor);
    e.end = append(ArcKind::kOutput);
    e.priority = tr.priority;
    if (tr.IsImmediate()) {
      immediate_.push_back(t);
    } else {
      Require(tr.delay.has_value(), "timed transition without a delay");
      e.delay = &*tr.delay;
      timed_.push_back(t);
    }
  }
}

void CompiledNet::ImmediateConflictSet(const Marking& m,
                                       std::vector<TransitionId>& out) const {
  out.clear();
  int best_priority = 0;
  for (const TransitionId t : immediate_) {
    if (!Enabled(t, m)) continue;
    const int priority = table_[t].priority;
    if (out.empty() || priority > best_priority) {
      out.clear();
      out.push_back(t);
      best_priority = priority;
    } else if (priority == best_priority) {
      out.push_back(t);
    }
  }
}

}  // namespace wsn::petri
