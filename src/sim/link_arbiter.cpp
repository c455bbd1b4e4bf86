#include "src/sim/link_arbiter.h"

#include <algorithm>

namespace lgfi {

LinkArbiter::LinkArbiter(const Topology& mesh)
    : dirs_(mesh.direction_count()),
      cursor_(static_cast<size_t>(mesh.node_count()) * static_cast<size_t>(dirs_), 0) {}

void LinkArbiter::begin_step() {
  keys_.clear();
  granted_.clear();
  stalled_this_step_ = 0;
}

int LinkArbiter::request(NodeId from, Direction dir) {
  const int ticket = static_cast<int>(granted_.size());
  keys_.push_back(static_cast<uint64_t>(channel_of(from, dir)) << 32 |
                  static_cast<uint32_t>(ticket));
  granted_.push_back(0);
  return ticket;
}

void LinkArbiter::arbitrate() {
  // Tickets grouped by channel, submission order preserved inside a group:
  // the ticket in the low half breaks every tie of the channel in the high.
  std::sort(keys_.begin(), keys_.end());
  const size_t n = keys_.size();
  size_t i = 0;
  while (i < n) {
    const auto channel = static_cast<int32_t>(keys_[i] >> 32);
    size_t j = i + 1;
    while (j < n && static_cast<int32_t>(keys_[j] >> 32) == channel) ++j;
    const size_t contenders = j - i;
    // A link-faulted channel grants nobody: all contenders stall, and the
    // cursor does not move so the rotation resumes intact after repair.
    if (links_ != nullptr && links_->any() &&
        links_->faulty(static_cast<NodeId>(channel / dirs_),
                       Direction::from_index(channel % dirs_))) {
      stalled_this_step_ += static_cast<long long>(contenders);
      i = j;
      continue;
    }
    uint32_t& cursor = cursor_[static_cast<size_t>(channel)];
    const size_t winner = i + cursor % contenders;
    granted_[static_cast<size_t>(keys_[winner] & 0xffffffffu)] = 1;
    if (contenders > 1) {
      ++cursor;
      stalled_this_step_ += static_cast<long long>(contenders - 1);
    }
    i = j;
  }
  total_stalled_ += stalled_this_step_;
}

}  // namespace lgfi
