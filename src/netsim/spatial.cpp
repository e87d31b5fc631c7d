#include "netsim/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace wsn::netsim {

using util::Require;

SpatialGrid::SpatialGrid(const std::vector<node::Position>& positions,
                         double cell_m)
    : size_(positions.size()), cell_m_(cell_m) {
  Require(!positions.empty(), "spatial grid needs at least one node");
  Require(cell_m > 0.0 && std::isfinite(cell_m),
          "spatial grid cell size must be positive and finite");

  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  min_x_ = std::numeric_limits<double>::infinity();
  min_y_ = std::numeric_limits<double>::infinity();
  for (const node::Position& p : positions) {
    Require(std::isfinite(p.x) && std::isfinite(p.y),
            "node positions must be finite");
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }

  // Keep the cell table O(N): a sparse deployment (huge extent, small
  // hop) would otherwise allocate extent^2 / cell^2 empty cells.  Growing
  // the cell size preserves query correctness — the 3x3 block of larger
  // cells still covers everything within the *requested* radius — it only
  // widens the candidate supersets.
  const double width = max_x - min_x_;
  const double height = max_y - min_y_;
  // The budget test runs in double: extent/hop ratios past 2^32 would
  // overflow a size_t cell product long before the loop settles.
  const auto cells_along = [](double extent, double cell) {
    return std::floor(extent / cell) + 1.0;
  };
  const double cell_budget = static_cast<double>(4 * size_ + 64);
  while (cells_along(width, cell_m_) * cells_along(height, cell_m_) >
         cell_budget) {
    cell_m_ *= 2.0;
  }
  nx_ = static_cast<std::size_t>(cells_along(width, cell_m_));
  ny_ = static_cast<std::size_t>(cells_along(height, cell_m_));
  inv_cell_ = 1.0 / cell_m_;

  // Counting sort into CSR: one pass to size the cells, one to fill.
  // Filling in ascending node index keeps each cell's slice sorted.
  cell_of_.resize(size_);
  std::vector<std::uint32_t> count(nx_ * ny_, 0);
  for (std::size_t i = 0; i < size_; ++i) {
    cell_of_[i] = static_cast<std::uint32_t>(CellOf(positions[i]));
    ++count[cell_of_[i]];
  }
  cells_.resize(nx_ * ny_);
  std::uint32_t start = 0;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    cells_[c].begin = start;
    cells_[c].end = start;  // advanced by the fill below
    start += count[c];
  }
  items_.resize(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    items_[cells_[cell_of_[i]].end++] = static_cast<std::uint32_t>(i);
  }
}

void SpatialGrid::Remove(std::size_t j) {
  Require(j < cell_of_.size() && cell_of_[j] != kRemoved,
          "spatial grid: removed node is not indexed");
  CellRange& range = cells_[cell_of_[j]];
  std::uint32_t* const first = items_.data() + range.begin;
  std::uint32_t* const last = items_.data() + range.end;
  std::uint32_t* const at =
      std::lower_bound(first, last, static_cast<std::uint32_t>(j));
  std::copy(at + 1, last, at);
  --range.end;
  cell_of_[j] = kRemoved;
  --size_;
}

}  // namespace wsn::netsim
