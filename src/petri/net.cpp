#include "petri/net.hpp"

#include <unordered_set>

#include "util/error.hpp"

namespace wsn::petri {

using util::InvalidArgument;
using util::ModelError;
using util::Require;

PlaceId PetriNet::AddPlace(std::string name, std::uint32_t initial_tokens) {
  places_.push_back({std::move(name), initial_tokens});
  return places_.size() - 1;
}

TransitionId PetriNet::AddImmediateTransition(std::string name, int priority,
                                              double weight) {
  Require(weight > 0.0, "immediate transition weight must be positive");
  Transition t;
  t.name = std::move(name);
  t.kind = TransitionKind::kImmediate;
  t.priority = priority;
  t.weight = weight;
  transitions_.push_back(std::move(t));
  return transitions_.size() - 1;
}

TransitionId PetriNet::AddTimedTransition(std::string name,
                                          util::Distribution delay) {
  Transition t;
  t.name = std::move(name);
  t.kind = TransitionKind::kTimed;
  t.delay = std::move(delay);
  transitions_.push_back(std::move(t));
  return transitions_.size() - 1;
}

TransitionId PetriNet::AddExponentialTransition(std::string name,
                                                double rate) {
  return AddTimedTransition(std::move(name),
                            util::Distribution(util::Exponential{rate}));
}

TransitionId PetriNet::AddDeterministicTransition(std::string name,
                                                  double delay) {
  return AddTimedTransition(std::move(name),
                            util::Distribution(util::Deterministic{delay}));
}

void PetriNet::CheckIds(TransitionId t, PlaceId p) const {
  Require(t < transitions_.size(), "transition id out of range");
  Require(p < places_.size(), "place id out of range");
}

void PetriNet::AddInputArc(TransitionId t, PlaceId p,
                           std::uint32_t multiplicity) {
  CheckIds(t, p);
  Require(multiplicity >= 1, "arc multiplicity must be >= 1");
  transitions_[t].arcs.push_back({ArcKind::kInput, p, multiplicity});
}

void PetriNet::AddOutputArc(TransitionId t, PlaceId p,
                            std::uint32_t multiplicity) {
  CheckIds(t, p);
  Require(multiplicity >= 1, "arc multiplicity must be >= 1");
  transitions_[t].arcs.push_back({ArcKind::kOutput, p, multiplicity});
}

void PetriNet::AddInhibitorArc(TransitionId t, PlaceId p,
                               std::uint32_t multiplicity) {
  CheckIds(t, p);
  Require(multiplicity >= 1, "arc multiplicity must be >= 1");
  transitions_[t].arcs.push_back({ArcKind::kInhibitor, p, multiplicity});
}

PlaceId PetriNet::PlaceByName(const std::string& name) const {
  for (std::size_t i = 0; i < places_.size(); ++i) {
    if (places_[i].name == name) return i;
  }
  throw InvalidArgument("no place named '" + name + "'");
}

TransitionId PetriNet::TransitionByName(const std::string& name) const {
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    if (transitions_[i].name == name) return i;
  }
  throw InvalidArgument("no transition named '" + name + "'");
}

Marking PetriNet::InitialMarking() const {
  Marking m(places_.size());
  for (std::size_t i = 0; i < places_.size(); ++i) {
    m[i] = places_[i].initial_tokens;
  }
  return m;
}

bool PetriNet::AllTimedExponential() const noexcept {
  for (const Transition& t : transitions_) {
    if (t.kind == TransitionKind::kTimed && t.delay &&
        !t.delay->IsMemoryless()) {
      return false;
    }
  }
  return true;
}

bool PetriNet::HasDeterministic() const noexcept {
  for (const Transition& t : transitions_) {
    if (t.kind == TransitionKind::kTimed && t.delay &&
        t.delay->IsDeterministic()) {
      return true;
    }
  }
  return false;
}

void PetriNet::Validate() const {
  if (places_.empty()) throw ModelError("net has no places");
  if (transitions_.empty()) throw ModelError("net has no transitions");

  std::unordered_set<std::string> names;
  for (const Place& p : places_) {
    if (!names.insert("p:" + p.name).second) {
      throw ModelError("duplicate place name '" + p.name + "'");
    }
  }
  for (const Transition& t : transitions_) {
    if (!names.insert("t:" + t.name).second) {
      throw ModelError("duplicate transition name '" + t.name + "'");
    }
    if (t.arcs.empty()) {
      throw ModelError("transition '" + t.name + "' has no arcs");
    }
    if (t.kind == TransitionKind::kTimed && !t.delay.has_value()) {
      throw ModelError("timed transition '" + t.name + "' has no delay");
    }
    bool has_input_or_inhibitor = false;
    for (const Arc& a : t.arcs) {
      if (a.kind != ArcKind::kOutput) has_input_or_inhibitor = true;
    }
    if (!has_input_or_inhibitor && t.kind == TransitionKind::kImmediate) {
      throw ModelError("immediate transition '" + t.name +
                       "' is always enabled (no input/inhibitor arcs): "
                       "the net would livelock in zero time");
    }
  }
}

std::vector<std::vector<long>> PetriNet::IncidenceMatrix() const {
  std::vector<std::vector<long>> c(
      transitions_.size(), std::vector<long>(places_.size(), 0));
  for (std::size_t t = 0; t < transitions_.size(); ++t) {
    for (const Arc& a : transitions_[t].arcs) {
      if (a.kind == ArcKind::kInput) {
        c[t][a.place] -= static_cast<long>(a.multiplicity);
      } else if (a.kind == ArcKind::kOutput) {
        c[t][a.place] += static_cast<long>(a.multiplicity);
      }
    }
  }
  return c;
}

}  // namespace wsn::petri
