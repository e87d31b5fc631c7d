#include "spans.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::Begin(const std::string& name, std::uint64_t op) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double now = Now();
  const int id = Add(name, now, now, parent, op);
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span '" + spans_.at(id).name +
                           "' closed out of order");
  }
  open_.pop_back();
  spans_[id].end_s = Now();
}

int Tracer::Add(const std::string& name, double start_s, double end_s,
                int parent, std::uint64_t op) {
  spans_.push_back(Span{name, start_s, end_s, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, SpanTotals> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = s.end_s - s.start_s;
    // Union of the child intervals clipped to [start, end].
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [lo, hi] : kids) {
      const double a = std::max(lo, reach);
      const double b = std::min(hi, s.end_s);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_s += duration;
    t.self_s += duration - covered;
  }
  return out;
}

}  // namespace perfbench
