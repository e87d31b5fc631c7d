#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "scenario/common.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace wsn::scenario {

namespace {

[[noreturn]] void SpecFail(const std::string& message) {
  throw util::InvalidArgument("spec: " + message);
}

/// A sorted accepted-key (or vocabulary) list.
using Keys = std::vector<const char*>;

template <typename Range>
std::string JoinList(const Range& items) {
  std::string out;
  for (const char* item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

/// A JSON object plus its "$.section" path: every getter validates type
/// and range and fails with the member's full path.  Accepted-key lists
/// are kept sorted in the source so error messages read alphabetically.
class ObjView {
 public:
  ObjView(const util::JsonValue& v, std::string path)
      : v_(&v), path_(std::move(path)) {}

  const std::string& Path() const { return path_; }
  std::string At(const char* key) const { return path_ + "." + key; }
  bool Has(const char* key) const { return v_->Find(key) != nullptr; }
  bool Empty() const { return v_->Members().empty(); }

  /// Reject members outside `accepted`.  `note` qualifies the accepted
  /// list, e.g. " for study 'lifetime'" at the document root.
  void RequireKeys(const Keys& accepted, const std::string& note = "") const {
    for (const auto& [key, value] : v_->Members()) {
      bool known = false;
      for (const char* a : accepted) {
        if (key == a) {
          known = true;
          break;
        }
      }
      if (!known) {
        SpecFail("unknown key '" + key + "' at " + path_ + " (accepted" +
                 note + ": " + JoinList(accepted) + ")");
      }
    }
  }

  double Number(const char* key, double fallback) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_number()) {
      SpecFail(At(key) + ": expected a number, got " + m->TypeName());
    }
    return m->AsNumber();
  }

  double Positive(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v > 0.0)) {
      SpecFail(At(key) + ": must be > 0 (got " + CompactNumber(v) + ")");
    }
    return v;
  }

  double NonNegative(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v >= 0.0)) {
      SpecFail(At(key) + ": must be >= 0 (got " + CompactNumber(v) + ")");
    }
    return v;
  }

  /// Loss probabilities live in [0, 1) — MacConfig rejects p_loss = 1.
  double LossProb(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v >= 0.0 && v < 1.0)) {
      SpecFail(At(key) + ": must be in [0, 1) (got " + CompactNumber(v) + ")");
    }
    return v;
  }

  /// Head fractions / jam losses live in (0, 1].
  double FractionOpenLow(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v > 0.0 && v <= 1.0)) {
      SpecFail(At(key) + ": must be in (0, 1] (got " + CompactNumber(v) + ")");
    }
    return v;
  }

  /// Advanced-node fractions live in [0, 1].
  double FractionClosed(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v >= 0.0 && v <= 1.0)) {
      SpecFail(At(key) + ": must be in [0, 1] (got " + CompactNumber(v) + ")");
    }
    return v;
  }

  std::size_t Count(const char* key, std::size_t fallback,
                    std::size_t min) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_number()) {
      SpecFail(At(key) + ": expected a number, got " + m->TypeName());
    }
    const double v = m->AsNumber();
    if (v != std::floor(v) || std::abs(v) > 9.0e15) {
      SpecFail(At(key) + ": expected an integer, got " + CompactNumber(v));
    }
    if (v < static_cast<double>(min)) {
      SpecFail(At(key) + ": must be >= " + std::to_string(min) + " (got " +
               CompactNumber(v) + ")");
    }
    return static_cast<std::size_t>(v);
  }

  std::uint64_t U64(const char* key, std::uint64_t fallback) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_number()) {
      SpecFail(At(key) + ": expected a number, got " + m->TypeName());
    }
    const double v = m->AsNumber();
    if (v != std::floor(v) || std::abs(v) > 9.0e15) {
      SpecFail(At(key) + ": expected an integer, got " + CompactNumber(v));
    }
    if (v < 0.0) {
      SpecFail(At(key) + ": must be >= 0 (got " + CompactNumber(v) + ")");
    }
    return static_cast<std::uint64_t>(v);
  }

  bool Bool(const char* key, bool fallback) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_bool()) {
      SpecFail(At(key) + ": expected a boolean, got " + m->TypeName());
    }
    return m->AsBool();
  }

  std::string Choice(const char* key, const std::string& fallback,
                     std::initializer_list<const char*> choices) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_string()) {
      SpecFail(At(key) + ": expected a string, got " + m->TypeName());
    }
    const std::string& v = m->AsString();
    for (const char* c : choices) {
      if (v == c) return v;
    }
    SpecFail(At(key) + ": unknown value '" + v +
             "' (one of: " + JoinList(choices) + ")");
  }

  /// Non-empty array of strictly positive numbers (a sweep-axis list in
  /// the faults study); the member must be present.  Arity errors name
  /// the count.
  std::vector<double> PositiveArray(const char* key) const {
    const util::JsonValue* m = v_->Find(key);
    if (!m->is_array()) {
      SpecFail(At(key) + ": expected an array of numbers, got " +
               m->TypeName());
    }
    const auto& items = m->Items();
    if (items.empty()) {
      SpecFail(At(key) + ": needs at least 1 entry (got 0)");
    }
    std::vector<double> values;
    values.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string at = At(key) + "[" + std::to_string(i) + "]";
      if (!items[i].is_number()) {
        SpecFail(at + ": expected a number, got " + items[i].TypeName());
      }
      const double v = items[i].AsNumber();
      if (!(v > 0.0)) {
        SpecFail(at + ": must be > 0 (got " + CompactNumber(v) + ")");
      }
      values.push_back(v);
    }
    return values;
  }

  const util::JsonValue* Raw(const char* key) const { return v_->Find(key); }

 private:
  const util::JsonValue* v_;
  std::string path_;
};

/// Fetch an optional object-valued section of `root`.
std::optional<ObjView> Section(const ObjView& root, const char* key) {
  const util::JsonValue* v = root.Raw(key);
  if (v == nullptr) return std::nullopt;
  if (!v->is_object()) {
    SpecFail(root.At(key) + ": expected an object, got " + v->TypeName());
  }
  return ObjView(*v, root.At(key));
}

// ------------------------------------------------------------- generic

/// Range discipline of a sweepable knob.
enum class AxisRange { kPositive, kLossProb, kFractionOpenLow };

struct SweepableKnob {
  const char* key;
  AxisRange range;
  bool needs_cluster;
};

/// Sorted by key — the order error messages list them in.
constexpr SweepableKnob kSweepable[] = {
    {"cluster.head_fraction", AxisRange::kFractionOpenLow, true},
    {"cluster.round_s", AxisRange::kPositive, true},
    {"faults.crash_rate", AxisRange::kPositive, false},
    {"faults.outage_s", AxisRange::kPositive, false},
    {"mac.p_loss", AxisRange::kLossProb, false},
    {"node.battery_mah", AxisRange::kPositive, false},
    {"node.rate", AxisRange::kPositive, false},
    {"run.horizon_s", AxisRange::kPositive, false},
    {"topology.hop", AxisRange::kPositive, false},
    {"topology.spacing", AxisRange::kPositive, false},
};

std::string SweepableList() {
  std::string out;
  for (const SweepableKnob& k : kSweepable) {
    if (!out.empty()) out += ", ";
    out += k.key;
  }
  return out;
}

/// Sorted column vocabulary of the generic study's cells table.
constexpr const char* kColumns[] = {
    "conserved",     "crashes",   "delivered", "delivery_ratio",
    "dropped",       "events",    "first_death_s", "generated",
    "healed",        "in_flight", "partition_s",   "recoveries",
};

void ParseSweep(const ObjView& root, GenericSpec& g) {
  const util::JsonValue* sv = root.Raw("sweep");
  if (sv == nullptr) return;
  if (!sv->is_array()) {
    SpecFail(root.At("sweep") + ": expected an array of axis objects, got " +
             sv->TypeName());
  }
  const auto& items = sv->Items();
  if (items.size() > 3) {
    SpecFail(root.At("sweep") + ": at most 3 axes (got " +
             std::to_string(items.size()) + ")");
  }
  std::size_t cells = 1;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string at = root.At("sweep") + "[" + std::to_string(i) + "]";
    if (!items[i].is_object()) {
      SpecFail(at + ": expected an axis object, got " + items[i].TypeName());
    }
    const ObjView axis_view(items[i], at);
    axis_view.RequireKeys({"key", "values"});
    if (!axis_view.Has("key")) {
      SpecFail("missing required key 'key' at " + at);
    }
    if (!axis_view.Has("values")) {
      SpecFail("missing required key 'values' at " + at);
    }
    const util::JsonValue* key = axis_view.Raw("key");
    if (!key->is_string()) {
      SpecFail(at + ".key: expected a string, got " + key->TypeName());
    }
    SweepAxis axis;
    axis.key = key->AsString();
    const SweepableKnob* knob = nullptr;
    for (const SweepableKnob& k : kSweepable) {
      if (axis.key == k.key) {
        knob = &k;
        break;
      }
    }
    if (knob == nullptr) {
      SpecFail(at + ".key: '" + axis.key +
               "' is not sweepable (sweepable: " + SweepableList() + ")");
    }
    for (const SweepAxis& seen : g.sweep) {
      if (seen.key == axis.key) {
        SpecFail(at + ".key: duplicate axis '" + axis.key + "'");
      }
    }
    if (knob->needs_cluster && !g.clustered) {
      SpecFail(at + ".key: '" + axis.key + "' requires a cluster section");
    }
    const util::JsonValue* vals = axis_view.Raw("values");
    if (!vals->is_array()) {
      SpecFail(at + ".values: expected an array of numbers, got " +
               vals->TypeName());
    }
    if (vals->Items().empty()) {
      SpecFail(at + ".values: needs at least 1 entry (got 0)");
    }
    for (std::size_t j = 0; j < vals->Items().size(); ++j) {
      const std::string vat = at + ".values[" + std::to_string(j) + "]";
      const util::JsonValue& item = vals->Items()[j];
      if (!item.is_number()) {
        SpecFail(vat + ": expected a number, got " + item.TypeName());
      }
      const double v = item.AsNumber();
      switch (knob->range) {
        case AxisRange::kPositive:
          if (!(v > 0.0)) {
            SpecFail(vat + ": must be > 0 (got " + CompactNumber(v) + ")");
          }
          break;
        case AxisRange::kLossProb:
          if (!(v >= 0.0 && v < 1.0)) {
            SpecFail(vat + ": must be in [0, 1) (got " + CompactNumber(v) +
                     ")");
          }
          break;
        case AxisRange::kFractionOpenLow:
          if (!(v > 0.0 && v <= 1.0)) {
            SpecFail(vat + ": must be in (0, 1] (got " + CompactNumber(v) +
                     ")");
          }
          break;
      }
      axis.values.push_back(v);
    }
    cells *= axis.values.size();
    g.sweep.push_back(std::move(axis));
  }
  if (cells > 64) {
    SpecFail(root.At("sweep") + ": " + std::to_string(cells) +
             " cells exceed the 64-cell cap (axis lengths multiply)");
  }
}

/// The first generic knob that makes the analytic cross-check invalid,
/// or "" when the spec is analytically comparable.
std::string AnalyticConflict(const GenericSpec& g) {
  if (g.clustered) {
    return "the cluster section (the analytic estimator models flat greedy "
           "routing)";
  }
  if (g.bursty) {
    return "traffic.kind 'bursty' (the analytic estimator assumes steady "
           "Poisson traffic)";
  }
  if (g.crash_rate_hz > 0.0 || g.jam_windows > 0 || g.sink_outages > 0) {
    return "the faults section (the analytic estimator has no fault model)";
  }
  if (g.p_loss > 0.0) {
    return "mac.p_loss > 0 (the analytic estimator assumes a lossless MAC)";
  }
  if (g.wakeup_interval_s > 0.0) {
    return "mac.wakeup_interval_s > 0 (the analytic estimator assumes an "
           "always-on MAC)";
  }
  if (g.rerouting) {
    return "routing.rerouting true (disable rerouting so the simulated first "
           "death matches the static routes)";
  }
  if (g.stop_at != "first_death") {
    return "run.stop_at '" + g.stop_at +
           "' (use 'first_death' so the run measures lifetime)";
  }
  if (g.sinks > 1) {
    return "topology.sinks > 1 (the analytic estimator models a single "
           "sink)";
  }
  return "";
}

/// One study's entry in the spec schema: its defaults, its renderer and
/// the subset of the generic schema it accepts, by section.  Sections
/// and keys are sorted so error messages list them alphabetically.
struct StudySchema {
  const char* name;
  GenericSpec (*defaults)();
  ResultSet (*render)(const ScenarioContext&, const GenericSpec&);
  std::vector<std::pair<const char*, Keys>> sections;

  /// Accepted keys at the document root: the sections plus "study".
  Keys RootKeys() const {
    Keys keys{"study"};
    for (const auto& section : sections) keys.push_back(section.first);
    std::sort(keys.begin(), keys.end(), [](const char* a, const char* b) {
      return std::strcmp(a, b) < 0;
    });
    return keys;
  }

  /// Accepted keys of `section` (only asked for sections it lists).
  const Keys& SectionKeys(const char* section) const {
    for (const auto& entry : sections) {
      if (std::strcmp(entry.first, section) == 0) return entry.second;
    }
    throw util::Error(std::string("spec: study '") + name +
                      "' has no section '" + section + "'");
  }
};

/// Every study, sorted by name.  A named study accepts exactly the knobs
/// its registry twin exposes as flags.
const std::vector<StudySchema>& Studies() {
  const Keys grid{"cols", "hop", "rows", "spacing"};
  const Keys node{"battery_mah", "rate"};
  const Keys run{"horizon_s", "replications", "seed"};
  const Keys cluster{"aggregation", "head_fraction", "protocol", "round_s",
                     "static_heads"};
  const Keys classes{"advanced_fraction", "battery_factor", "placement"};
  static const std::vector<StudySchema> studies = {
      {"clustered", ClusteredDefaults, RunClusteredStudy,
       {{"cluster", cluster},
        {"node", node},
        {"run", run},
        {"topology", {"cols", "hop", "rows", "sinks", "spacing"}}}},
      {"faults", FaultDefaults, RunFaultStudy,
       {{"faults",
         {"crash_rates", "jam_duration", "jam_p_loss", "jam_radius",
          "jam_windows", "outages", "sink_outage_s", "sink_outages"}},
        {"node", {"rate"}},
        {"run", run},
        {"topology", {"hop", "nodes", "spacing"}}}},
      {"generic", [] { return GenericSpec{}; }, RunGenericStudy,
       {{"classes", classes},
        {"cluster",
         {"aggregation", "assign", "head_fraction", "protocol", "round_s",
          "static_heads"}},
        {"faults",
         {"crash_rate", "jam_duration", "jam_p_loss", "jam_radius",
          "jam_windows", "outage_s", "sink_outage_s", "sink_outages"}},
        {"mac", {"max_queue", "max_retries", "p_loss", "wakeup_interval_s"}},
        {"node", node},
        {"output", {"columns"}},
        {"routing", {"rerouting", "update"}},
        {"run", {"horizon_s", "replications", "seed", "stop_at"}},
        {"sweep", {}},
        {"topology", {"cols", "hop", "nodes", "rows", "sinks", "spacing"}},
        {"traffic", {"kind"}},
        {"verify", {"analytic", "oracle"}}}},
      {"heterogeneous", HeterogeneousDefaults, RunHeterogeneousStudy,
       {{"classes", classes},
        {"node", node},
        {"run", run},
        {"topology", grid}}},
      {"lifetime", LifetimeDefaults, RunLifetimeStudy,
       {{"node", node}, {"run", run}, {"topology", grid}, {"traffic", {"kind"}}}},
      {"throughput", ThroughputDefaults, RunThroughputStudy,
       {{"cluster", {}}, {"node", {"rate"}}, {"run", run}, {"topology", grid}}},
  };
  return studies;
}

/// The study names, for error messages.
std::string StudyList() {
  Keys names;
  for (const StudySchema& study : Studies()) names.push_back(study.name);
  return JoinList(names);
}

/// Parse `root` against `study`'s accepted keys, starting from its
/// defaults.  Every section reads every key the generic schema knows;
/// keys outside the study's subset were already rejected, so they keep
/// their defaults.
GenericSpec ParseStudy(const ObjView& root, const StudySchema& study) {
  root.RequireKeys(study.RootKeys(),
                   " for study '" + std::string(study.name) + "'");
  GenericSpec g = study.defaults();
  const auto section = [&](const char* name) {
    std::optional<ObjView> v = Section(root, name);
    if (v) v->RequireKeys(study.SectionKeys(name));
    return v;
  };
  if (const auto t = section("topology")) {
    if (t->Has("nodes") && (t->Has("cols") || t->Has("rows"))) {
      SpecFail(t->Path() +
               ": 'nodes' conflicts with 'cols'/'rows' (a 'nodes' deployment "
               "derives its own near-square grid)");
    }
    g.nodes = t->Count("nodes", g.nodes, 2);
    g.cols = t->Count("cols", g.cols, 1);
    g.rows = t->Count("rows", g.rows, 1);
    g.spacing_m = t->Positive("spacing", g.spacing_m);
    g.hop_m = t->Positive("hop", g.hop_m);
    g.sinks = t->Count("sinks", g.sinks, 1);
    if (g.sinks > 4) {
      SpecFail(t->At("sinks") + ": must be in 1..4 (got " +
               std::to_string(g.sinks) + ")");
    }
  }
  if (const auto n = section("node")) {
    g.rate_hz = n->Positive("rate", g.rate_hz);
    g.battery_mah = n->Positive("battery_mah", g.battery_mah);
  }
  if (const auto t = section("traffic")) {
    g.bursty = t->Choice("kind", g.bursty ? "bursty" : "steady",
                         {"bursty", "steady"}) == "bursty";
  }
  if (const auto m = section("mac")) {
    g.p_loss = m->LossProb("p_loss", g.p_loss);
    g.wakeup_interval_s =
        m->NonNegative("wakeup_interval_s", g.wakeup_interval_s);
    g.max_retries = m->Count("max_retries", g.max_retries, 0);
    g.max_queue = m->Count("max_queue", g.max_queue, 1);
  }
  if (const auto r = section("routing")) {
    const bool full = g.routing_update == netsim::RoutingUpdateMode::kFull;
    g.routing_update = r->Choice("update", full ? "full" : "incremental",
                                 {"full", "incremental"}) == "full"
                           ? netsim::RoutingUpdateMode::kFull
                           : netsim::RoutingUpdateMode::kIncremental;
    g.rerouting = r->Bool("rerouting", g.rerouting);
  }
  if (const auto c = Section(root, "cluster")) {
    // A study without cluster keys takes the section as a bare switch.
    if (study.SectionKeys("cluster").empty() && !c->Empty()) {
      SpecFail(c->Path() + ": study '" + study.name +
               "' derives its cluster knobs (round = horizon/5, aggregation "
               "4); pass an empty object to enable the clustered data path");
    }
    c->RequireKeys(study.SectionKeys("cluster"));
    g.clustered = true;
    g.cluster.protocol = netsim::ParseClusterProtocolKind(
        c->Choice("protocol",
                  netsim::ClusterProtocolKindName(g.cluster.protocol),
                  {"leach", "static"}));
    g.cluster.head_fraction =
        c->FractionOpenLow("head_fraction", g.cluster.head_fraction);
    g.cluster.static_heads =
        c->Count("static_heads", g.cluster.static_heads, 0);
    g.cluster.round_s = c->Positive("round_s", g.cluster.round_s);
    g.cluster.aggregation = c->Count("aggregation", g.cluster.aggregation, 1);
    const bool grid_assign = g.assign == netsim::HeadAssignMode::kGrid;
    g.assign = c->Choice("assign", grid_assign ? "grid" : "all-pairs",
                         {"all-pairs", "grid"}) == "grid"
                   ? netsim::HeadAssignMode::kGrid
                   : netsim::HeadAssignMode::kAllPairs;
  }
  if (const auto c = section("classes")) {
    g.advanced_fraction =
        c->FractionClosed("advanced_fraction", g.advanced_fraction);
    g.battery_factor = c->Positive("battery_factor", g.battery_factor);
    g.placement = c->Choice("placement", g.placement, {"hotspot", "spread"});
  }
  if (const auto f = section("faults")) {
    g.crash_rate_hz = f->NonNegative("crash_rate", g.crash_rate_hz);
    if (f->Has("crash_rates")) {
      SweepValues(g, "faults.crash_rate") = f->PositiveArray("crash_rates");
    }
    g.outage_s = f->NonNegative("outage_s", g.outage_s);
    if (f->Has("outages")) {
      SweepValues(g, "faults.outage_s") = f->PositiveArray("outages");
    }
    g.jam_windows = f->Count("jam_windows", g.jam_windows, 0);
    g.jam_radius_m = f->Positive("jam_radius", g.jam_radius_m);
    if (f->Has("jam_duration")) {
      g.jam_duration_s = f->Positive("jam_duration", g.jam_duration_s);
    }
    g.jam_p_loss = f->FractionOpenLow("jam_p_loss", g.jam_p_loss);
    g.sink_outages = f->Count("sink_outages", g.sink_outages, 0);
    if (f->Has("sink_outage_s")) {
      g.sink_outage_s = f->Positive("sink_outage_s", g.sink_outage_s);
    }
    if (g.crash_rate_hz > 0.0 && !(g.outage_s > 0.0)) {
      SpecFail(f->Path() + ": 'crash_rate' > 0 requires 'outage_s' > 0");
    }
  }
  if (const auto run = section("run")) {
    g.horizon_s = run->Positive("horizon_s", g.horizon_s);
    g.stop_at = run->Choice("stop_at", g.stop_at,
                            {"first_death", "horizon", "partition"});
    g.replications = run->Count("replications", g.replications, 1);
    g.seed = run->U64("seed", g.seed);
  }
  ParseSweep(root, g);
  if (const auto o = section("output")) {
    const util::JsonValue* cols = o->Raw("columns");
    if (cols != nullptr) {
      if (!cols->is_array()) {
        SpecFail(o->At("columns") + ": expected an array of column names, "
                 "got " + cols->TypeName());
      }
      if (cols->Items().empty()) {
        SpecFail(o->At("columns") + ": needs at least 1 entry (got 0)");
      }
      std::vector<std::string> columns;
      for (std::size_t i = 0; i < cols->Items().size(); ++i) {
        const std::string at =
            o->At("columns") + "[" + std::to_string(i) + "]";
        const util::JsonValue& item = cols->Items()[i];
        if (!item.is_string()) {
          SpecFail(at + ": expected a string, got " + item.TypeName());
        }
        const std::string& name = item.AsString();
        if (std::none_of(std::begin(kColumns), std::end(kColumns),
                         [&](const char* c) { return name == c; })) {
          SpecFail(at + ": unknown column '" + name +
                   "' (available: " + JoinList(kColumns) + ")");
        }
        if (std::find(columns.begin(), columns.end(), name) !=
            columns.end()) {
          SpecFail(at + ": duplicate column '" + name + "'");
        }
        columns.push_back(name);
      }
      g.columns = std::move(columns);
    }
  }
  if (const auto v = section("verify")) {
    g.verify_oracle = v->Bool("oracle", g.verify_oracle);
    g.verify_analytic = v->Bool("analytic", g.verify_analytic);
  }
  if (g.verify_analytic) {
    const std::string conflict = AnalyticConflict(g);
    if (!conflict.empty()) {
      SpecFail(root.At("verify") + ".analytic: conflicts with " + conflict);
    }
    for (const SweepAxis& axis : g.sweep) {
      if (axis.key == "mac.p_loss" || axis.key == "faults.crash_rate" ||
          axis.key == "faults.outage_s") {
        SpecFail(root.At("verify") + ".analytic: conflicts with sweep axis '" +
                 axis.key + "'");
      }
    }
  }
  return g;
}

const StudySchema* FindStudy(const std::string& name) {
  for (const StudySchema& study : Studies()) {
    if (name == study.name) return &study;
  }
  return nullptr;
}

}  // namespace

ScenarioSpec ParseScenarioSpec(const std::string& json_text) {
  const util::JsonValue doc = util::ParseJson(json_text);
  if (!doc.is_object()) {
    SpecFail("expected a JSON object at $, got " + std::string(doc.TypeName()));
  }
  const ObjView root(doc, "$");
  const util::JsonValue* study = root.Raw("study");
  if (study == nullptr) {
    SpecFail("missing required key 'study' at $ (one of: " + StudyList() +
             ")");
  }
  if (!study->is_string()) {
    SpecFail("$.study: expected a string, got " +
             std::string(study->TypeName()));
  }
  ScenarioSpec spec;
  spec.study = study->AsString();
  const StudySchema* schema = FindStudy(spec.study);
  if (schema == nullptr) {
    SpecFail("$.study: unknown study '" + spec.study + "' (one of: " +
             StudyList() + ")");
  }
  spec.generic = ParseStudy(root, *schema);
  return spec;
}

ScenarioSpec LoadScenarioSpecFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw util::InvalidArgument("spec: cannot read file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return ParseScenarioSpec(text.str());
  } catch (const util::InvalidArgument& e) {
    throw util::InvalidArgument(path + ": " + e.what());
  }
}

ResultSet RunSpec(const ScenarioContext& ctx, const ScenarioSpec& spec) {
  const StudySchema* schema = FindStudy(spec.study);
  util::Require(schema != nullptr, "unknown study '" + spec.study + "'");
  return schema->render(ctx, spec.generic);
}

}  // namespace wsn::scenario
