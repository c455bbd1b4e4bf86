#include "src/sim/resident_queues.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lgfi {

ResidentQueues::ResidentQueues(long long node_count)
    : fifo_(static_cast<size_t>(node_count)),
      occupied_((static_cast<size_t>(node_count) + 63) / 64, 0) {}

void ResidentQueues::remove(NodeId node, int id) {
  auto& q = fifo_[static_cast<size_t>(node)];
  const auto it = std::find(q.begin(), q.end(), id);
  if (it == q.end())
    throw std::logic_error("resident queues: packet " + std::to_string(id) +
                           " is not resident at node " + std::to_string(node));
  q.erase(it);
  if (q.empty()) occupied_[word(node)] &= ~bit(node);
}

void ResidentQueues::validate() const {
  for (size_t n = 0; n < fifo_.size(); ++n) {
    const auto node = static_cast<NodeId>(n);
    const bool marked = (occupied_[word(node)] & bit(node)) != 0;
    if (marked == fifo_[n].empty())
      throw std::logic_error("resident queues: occupancy bit of node " + std::to_string(n) +
                             (marked ? " set on an empty FIFO" : " clear on a non-empty FIFO"));
  }
}

}  // namespace lgfi
