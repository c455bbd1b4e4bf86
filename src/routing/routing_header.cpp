#include "src/routing/routing_header.h"

#include <cassert>
#include <utility>

namespace lgfi {

RoutingHeader::RoutingHeader(const Coord& source, const Coord& destination,
                             std::vector<PathEntry> storage)
    : destination_(destination), source_(source), current_(source), path_(std::move(storage)) {
  path_.clear();
  path_.push_back(PathEntry{source, Direction::none(), {}});
}

void RoutingHeader::forward(Direction d) { forward(d, d.apply(current_)); }

void RoutingHeader::forward(Direction d, const Coord& next) {
  assert(!d.is_none());
  path_.back().used.insert(d);
  PathEntry entry{next, d, {}};
  if (persistent_marks_) {
    // Record the mark globally and hand the next node its accumulated set.
    marks_[path_.back().node].insert(d);
    const auto it = marks_.find(next);
    if (it != marks_.end()) entry.used = it->second;
  }
  current_ = entry.node;
  path_.push_back(std::move(entry));
  ++forward_steps_;
}

void RoutingHeader::backtrack() {
  assert(!at_source());
  path_.pop_back();
  current_ = path_.back().node;
  if (persistent_marks_ && !path_.empty()) {
    // A deeper duplicate entry of this node may have gone stale while the
    // path looped through it; resync from the authoritative map.
    const auto it = marks_.find(path_.back().node);
    if (it != marks_.end()) path_.back().used = it->second;
  }
  ++backtrack_steps_;
}

void RoutingHeader::unmark(Direction d) {
  assert(!d.is_none());
  path_.back().used.erase(d);
  if (persistent_marks_) {
    const auto it = marks_.find(path_.back().node);
    if (it != marks_.end()) it->second.erase(d);
  }
}

std::vector<PathEntry> RoutingHeader::release_path() {
  marks_ = {};
  return std::exchange(path_, {});
}

void RoutingHeader::enable_persistent_marks() { persistent_marks_ = true; }

}  // namespace lgfi
