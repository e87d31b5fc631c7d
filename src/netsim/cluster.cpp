#include "netsim/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "netsim/spatial.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace wsn::netsim {

using util::Require;

const char* HeadAssignModeName(HeadAssignMode mode) noexcept {
  switch (mode) {
    case HeadAssignMode::kGrid:
      return "grid";
    case HeadAssignMode::kAllPairs:
      return "all-pairs";
  }
  return "?";
}

HeadAssignMode ParseHeadAssignMode(const std::string& name) {
  if (name == "grid") return HeadAssignMode::kGrid;
  if (name == "all-pairs") return HeadAssignMode::kAllPairs;
  throw util::InvalidArgument("unknown head-assignment mode '" + name +
                              "' (expected grid or all-pairs)");
}

void NodeClass::Validate() const {
  Require(!name.empty(), "node class name must be non-empty");
  Require(battery_mah > 0.0,
          "node class battery capacity must be positive");
  Require(battery_volts > 0.0, "node class battery voltage must be positive");
  Require(listen_duty_cycle >= 0.0 && listen_duty_cycle <= 1.0,
          "node class listen duty cycle must be in [0, 1]");
  Require(radio.elec_nj_per_bit >= 0.0 && radio.listen_mw >= 0.0 &&
              radio.sleep_mw >= 0.0,
          "node class radio powers must be non-negative");
}

ClusterAssignment AssignToNearestHeadAllPairs(const ClusterView& view,
                                              std::vector<std::size_t> heads) {
  const std::size_t n = view.Size();
  std::sort(heads.begin(), heads.end());
  ClusterAssignment out;
  out.head_of.assign(n, ClusterAssignment::kUnclustered);
  out.heads = std::move(heads);
  out.members.assign(out.heads.size(), {});
  for (std::size_t h : out.heads) out.head_of[h] = h;
  if (out.heads.empty()) return out;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(*view.alive)[i] || out.head_of[i] == i) continue;
    // Nearest-head search compares in distance^2: the argmin (ties to
    // the lowest head index, heads being sorted) is the same and no
    // sqrt is ever needed — the metric value itself is not used.
    double best2 = std::numeric_limits<double>::infinity();
    std::size_t best_slot = ClusterAssignment::kUnclustered;
    for (std::size_t s = 0; s < out.heads.size(); ++s) {
      const double d2 = node::Distance2((*view.positions)[i],
                                        (*view.positions)[out.heads[s]]);
      if (d2 < best2) {
        best2 = d2;
        best_slot = s;
      }
    }
    out.head_of[i] = out.heads[best_slot];
    out.members[best_slot].push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

ClusterAssignment AssignToNearestHeadGrid(const ClusterView& view,
                                          std::vector<std::size_t> heads) {
  const std::size_t n = view.Size();
  std::sort(heads.begin(), heads.end());
  ClusterAssignment out;
  out.head_of.assign(n, ClusterAssignment::kUnclustered);
  out.heads = std::move(heads);
  out.members.assign(out.heads.size(), {});
  for (std::size_t h : out.heads) out.head_of[h] = h;
  if (out.heads.empty()) return out;

  // Index the (few) heads, not the (many) nodes: compacted head
  // positions keep the grid tiny and the compacted index order equals
  // head-index order (heads are sorted), so NearestWhere's lowest-index
  // tie break is exactly the all-pairs lowest-head-index tie break.
  const std::size_t k = out.heads.size();
  std::vector<node::Position> head_pos;
  head_pos.reserve(k);
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (std::size_t h : out.heads) {
    const node::Position& p = (*view.positions)[h];
    head_pos.push_back(p);
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  // Aim for ~1 head per cell: cell = extent / sqrt(k).  Degenerate
  // extents (all heads colocated) fall back to a unit cell — the grid
  // collapses to one cell and the query degrades to all-pairs, still
  // correct.
  const double extent = std::max(max_x - min_x, max_y - min_y);
  const double side = std::ceil(std::sqrt(static_cast<double>(k)));
  double cell = extent > 0.0 ? extent / side : 1.0;
  if (!(cell > 0.0)) cell = 1.0;
  const SpatialGrid grid(head_pos, cell);

  for (std::size_t i = 0; i < n; ++i) {
    if (!(*view.alive)[i] || out.head_of[i] == i) continue;
    const node::Position& p = (*view.positions)[i];
    const std::size_t j = grid.NearestWhere(
        p, [&](std::size_t c) { return node::Distance2(p, head_pos[c]); });
    // j != kNone: heads is non-empty and no candidate is excluded.
    out.head_of[i] = out.heads[j];
    out.members[j].push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

ClusterAssignment AssignToNearestHead(const ClusterView& view,
                                      std::vector<std::size_t> heads) {
  obs::PhaseTimer timer(view.assign_stopwatch);
  // Below a handful of heads the grid build costs more than it saves
  // and the all-pairs scan is already O(n); the result is identical
  // either way, so this is a pure perf dispatch.
  if (view.assign_mode == HeadAssignMode::kAllPairs || heads.size() <= 4) {
    return AssignToNearestHeadAllPairs(view, std::move(heads));
  }
  return AssignToNearestHeadGrid(view, std::move(heads));
}

namespace {

/// Surviving members of `heads` under `alive`.
std::vector<std::size_t> AliveHeads(const std::vector<std::size_t>& heads,
                                    const std::vector<bool>& alive) {
  std::vector<std::size_t> out;
  out.reserve(heads.size());
  for (std::size_t h : heads) {
    if (alive[h]) out.push_back(h);
  }
  return out;
}

/// The alive node with the highest remaining energy fraction (ties break
/// toward the lowest index); kUnclustered when nothing is alive.
std::size_t MostChargedAlive(const ClusterView& view) {
  view.RefreshEnergy();  // the one reader of the lazily-updated energies
  std::size_t best = ClusterAssignment::kUnclustered;
  double best_energy = -1.0;
  for (std::size_t i = 0; i < view.Size(); ++i) {
    if (!(*view.alive)[i]) continue;
    const double e = (*view.energy_fraction)[i];
    if (e > best_energy) {
      best_energy = e;
      best = i;
    }
  }
  return best;
}

}  // namespace

/// Cached spatial grid over a head set, reused across the many repairs
/// between elections.  Every in-place repair Remove()s its dead head, so
/// the grid always holds exactly the heads of the assignment stamped
/// with `stamp`.  Compacted indices stay in ascending head order, so
/// NearestWhereBatch's lowest-index tie break is the lowest-head-id tie
/// break of the full re-assignment.  The remaining members are one
/// repair's scratch buffers, kept here so the repairs between two
/// elections reuse them.
struct ClusteringProtocol::RepairCache {
  std::vector<std::size_t> heads;   ///< head set at build time, sorted
  std::vector<node::Position> pos;  ///< positions parallel to `heads`
  SpatialGrid grid;
  std::uint64_t stamp = 0;  ///< ClusterAssignment::repair_stamp it serves

  std::vector<std::uint32_t> live;   ///< orphans that re-pick, in order
  std::vector<std::uint64_t> keys;   ///< (grid cell << 32) | index in live
  std::vector<std::size_t> pick;     ///< compacted head index per live
  std::vector<node::Position> batch_pos;  ///< one cell's query points
  std::vector<std::size_t> batch_best;    ///< their answers
  SpatialGrid::BatchScratch scratch;

  RepairCache(std::vector<std::size_t> h, std::vector<node::Position> p,
              double cell_m)
      : heads(std::move(h)), pos(std::move(p)), grid(pos, cell_m) {}
};

namespace {

/// Source of RepairCache stamps: process-wide, so no two caches (of any
/// protocol instance) ever share one.
std::atomic<std::uint64_t> next_repair_stamp{1};

}  // namespace

ClusteringProtocol::ClusteringProtocol() = default;
ClusteringProtocol::~ClusteringProtocol() = default;

ClusterAssignment ClusteringProtocol::Repair(const ClusterAssignment& current,
                                             std::size_t round,
                                             const ClusterView& view,
                                             util::Rng& rng) {
  std::vector<std::size_t> survivors = AliveHeads(current.heads, *view.alive);
  if (survivors.empty()) return Elect(round, view, rng);
  return AssignToNearestHead(view, std::move(survivors));
}

bool ClusteringProtocol::RepairInPlace(ClusterAssignment& cluster,
                                       std::size_t dead_head,
                                       const ClusterView& view,
                                       std::vector<std::uint32_t>& reattached) {
  // Decline when the last head died (the protocol's no-survivor policy —
  // a fresh Elect — must run) or the assignment carries no member lists.
  if (cluster.heads.size() <= 1) return false;
  if (cluster.members.size() != cluster.heads.size()) return false;
  const auto slot_it =
      std::lower_bound(cluster.heads.begin(), cluster.heads.end(), dead_head);
  if (slot_it == cluster.heads.end() || *slot_it != dead_head) return false;
  const std::size_t slot =
      static_cast<std::size_t>(slot_it - cluster.heads.begin());

  obs::PhaseTimer timer(view.assign_stopwatch);
  const std::vector<bool>& alive = *view.alive;
  const std::vector<node::Position>& positions = *view.positions;

  std::vector<std::uint32_t> orphans = std::move(cluster.members[slot]);
  cluster.heads.erase(slot_it);
  cluster.members.erase(cluster.members.begin() +
                        static_cast<std::ptrdiff_t>(slot));
  cluster.head_of[dead_head] = ClusterAssignment::kUnclustered;

  // The cache serves the assignment it was built for and the chain of
  // in-place repairs since, each of which removes its dead head from the
  // grid.  Every repair re-stamps both, so an election, a full Repair
  // (stamp 0) or a copy that diverged from the repaired assignment (an
  // older stamp) forces a rebuild.  A rebuild never changes results — the
  // query is an argmin over the same heads in the same ascending order —
  // and costs O(heads · log(heads)) once per election.
  if (repair_cache_ && cluster.repair_stamp == repair_cache_->stamp) {
    repair_cache_->grid.Remove(static_cast<std::size_t>(
        std::lower_bound(repair_cache_->heads.begin(),
                         repair_cache_->heads.end(), dead_head) -
        repair_cache_->heads.begin()));
  } else {
    std::vector<node::Position> head_pos;
    head_pos.reserve(cluster.heads.size());
    double min_x = std::numeric_limits<double>::infinity();
    double min_y = std::numeric_limits<double>::infinity();
    double max_x = -std::numeric_limits<double>::infinity();
    double max_y = -std::numeric_limits<double>::infinity();
    for (std::size_t h : cluster.heads) {
      const node::Position& p = positions[h];
      head_pos.push_back(p);
      min_x = std::min(min_x, p.x);
      min_y = std::min(min_y, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    // Same ~1-head-per-cell sizing as AssignToNearestHeadGrid.
    const double extent = std::max(max_x - min_x, max_y - min_y);
    const double side =
        std::ceil(std::sqrt(static_cast<double>(cluster.heads.size())));
    double cell = extent > 0.0 ? extent / side : 1.0;
    if (!(cell > 0.0)) cell = 1.0;
    repair_cache_ = std::make_unique<RepairCache>(cluster.heads,
                                                  std::move(head_pos), cell);
  }
  RepairCache& cache = *repair_cache_;
  cache.stamp = next_repair_stamp.fetch_add(1, std::memory_order_relaxed);
  cluster.repair_stamp = cache.stamp;

  // Only the dead head's orphans re-pick: members of surviving heads keep
  // their argmin (repair never adds heads, and removing non-argmin
  // candidates cannot change one).  Dead or previously re-attached
  // entries in the stale-tolerant member list are skipped.  The live
  // orphans are grouped by grid cell so that each cell's ring walk is
  // done once for all of its orphans.
  cache.live.clear();
  cache.keys.clear();
  for (std::uint32_t m : orphans) {
    if (!alive[m] || cluster.head_of[m] != dead_head) continue;
    cache.keys.push_back(
        (static_cast<std::uint64_t>(cache.grid.CellOf(positions[m])) << 32) |
        cache.live.size());
    cache.live.push_back(m);
  }
  std::sort(cache.keys.begin(), cache.keys.end());
  cache.pick.resize(cache.live.size());
  for (std::size_t lo = 0; lo < cache.keys.size();) {
    const std::uint64_t cell = cache.keys[lo] >> 32;
    std::size_t hi = lo;
    cache.batch_pos.clear();
    for (; hi < cache.keys.size() && (cache.keys[hi] >> 32) == cell; ++hi) {
      cache.batch_pos.push_back(
          positions[cache.live[cache.keys[hi] & 0xffffffffu]]);
    }
    cache.batch_best.resize(hi - lo);
    const node::Position* const query = cache.batch_pos.data();
    const node::Position* const head = cache.pos.data();
    cache.grid.NearestWhereBatch(
        static_cast<std::size_t>(cell), hi - lo,
        [query, head](std::size_t q, std::size_t c) {
          return node::Distance2(query[q], head[c]);
        },
        cache.batch_best.data(), cache.scratch);
    for (std::size_t q = 0; q < hi - lo; ++q) {
      cache.pick[cache.keys[lo + q] & 0xffffffffu] = cache.batch_best[q];
    }
    lo = hi;
  }

  // Attach in the original orphan order.  Every pick is a live head: the
  // grid holds exactly the surviving heads and at least one survives.
  for (std::size_t i = 0; i < cache.live.size(); ++i) {
    const std::uint32_t m = cache.live[i];
    const std::size_t new_head = cache.heads[cache.pick[i]];
    const std::size_t new_slot = static_cast<std::size_t>(
        std::lower_bound(cluster.heads.begin(), cluster.heads.end(),
                         new_head) -
        cluster.heads.begin());
    cluster.head_of[m] = new_head;
    cluster.members[new_slot].push_back(m);
    reattached.push_back(m);
  }
  return true;
}

LeachClustering::LeachClustering(double head_fraction) : p_(head_fraction) {
  Require(p_ > 0.0 && p_ <= 1.0, "head fraction must be in (0, 1]");
  epoch_ = static_cast<std::size_t>(std::ceil(1.0 / p_));
}

ClusterAssignment LeachClustering::Elect(std::size_t round,
                                         const ClusterView& view,
                                         util::Rng& rng) {
  const std::size_t n = view.Size();
  if (last_head_round_.empty()) last_head_round_.assign(n, kNever);

  // Classic LEACH threshold; the denominator shrinks through the epoch
  // so every eligible node is guaranteed a turn within 1/p rounds.
  const double phase = static_cast<double>(round % epoch_);
  const double denom = 1.0 - p_ * phase;
  const double threshold = denom > 0.0 ? std::min(1.0, p_ / denom) : 1.0;

  std::vector<std::size_t> heads;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(*view.alive)[i]) continue;
    const bool eligible = last_head_round_[i] == kNever ||
                          round - last_head_round_[i] >= epoch_;
    // The draw happens for every alive node, eligible or not, so the RNG
    // consumption — and therefore the whole replication — does not depend
    // on the eligibility history.
    const double u = util::UniformDouble(rng);
    if (eligible && u < threshold) heads.push_back(i);
  }
  if (heads.empty()) {
    // Nobody volunteered (or everyone is inside the rotation window):
    // draft the most-charged alive node so the network keeps reporting.
    const std::size_t drafted = MostChargedAlive(view);
    if (drafted != ClusterAssignment::kUnclustered) heads.push_back(drafted);
  }
  for (std::size_t h : heads) last_head_round_[h] = round;
  return AssignToNearestHead(view, std::move(heads));
}

StaticClustering::StaticClustering(std::size_t head_count)
    : head_count_(head_count) {
  Require(head_count_ >= 1, "static clustering needs at least one head");
}

ClusterAssignment StaticClustering::Elect(std::size_t round,
                                          const ClusterView& view,
                                          util::Rng& rng) {
  if (!chosen_) {
    chosen_ = true;
    std::vector<std::size_t> alive_nodes;
    for (std::size_t i = 0; i < view.Size(); ++i) {
      if ((*view.alive)[i]) alive_nodes.push_back(i);
    }
    const std::size_t k = std::min(head_count_, alive_nodes.size());
    heads_.reserve(k);
    // Index-striding spreads the k heads evenly across the deployment
    // order (for the grid helper that is a spatial spread too).
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t pick =
          (j * alive_nodes.size() + alive_nodes.size() / 2) / k;
      heads_.push_back(alive_nodes[std::min(pick, alive_nodes.size() - 1)]);
    }
    // Strided picks can collide on tiny deployments; dedupe.
    std::sort(heads_.begin(), heads_.end());
    heads_.erase(std::unique(heads_.begin(), heads_.end()), heads_.end());
  }
  (void)round;
  (void)rng;
  return AssignToNearestHead(view, AliveHeads(heads_, *view.alive));
}

const char* ClusterProtocolKindName(ClusterProtocolKind kind) noexcept {
  switch (kind) {
    case ClusterProtocolKind::kNone:
      return "none";
    case ClusterProtocolKind::kLeach:
      return "leach";
    case ClusterProtocolKind::kStatic:
      return "static";
  }
  return "?";
}

ClusterProtocolKind ParseClusterProtocolKind(const std::string& name) {
  if (name == "none") return ClusterProtocolKind::kNone;
  if (name == "leach") return ClusterProtocolKind::kLeach;
  if (name == "static") return ClusterProtocolKind::kStatic;
  throw util::InvalidArgument("unknown clustering protocol '" + name +
                              "' (expected none, leach or static)");
}

void ClusterConfig::Validate() const {
  Require(head_fraction > 0.0 && head_fraction <= 1.0,
          "cluster head fraction must be in (0, 1]");
  Require(aggregation >= 1, "cluster aggregation must be >= 1");
  Require(round_s >= 0.0, "cluster round length must be >= 0");
  if (Enabled()) {
    Require(round_s > 0.0,
            "clustering needs a positive round length (round_s)");
  }
}

std::unique_ptr<ClusteringProtocol> ClusterConfig::MakeProtocol(
    std::size_t node_count) const {
  switch (protocol) {
    case ClusterProtocolKind::kNone:
      return nullptr;
    case ClusterProtocolKind::kLeach:
      return std::make_unique<LeachClustering>(head_fraction);
    case ClusterProtocolKind::kStatic: {
      std::size_t k = static_heads;
      if (k == 0) {
        k = static_cast<std::size_t>(
            std::ceil(head_fraction * static_cast<double>(node_count)));
      }
      return std::make_unique<StaticClustering>(std::max<std::size_t>(k, 1));
    }
  }
  return nullptr;
}

}  // namespace wsn::netsim
