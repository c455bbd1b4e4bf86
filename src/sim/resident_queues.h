#pragma once
// Per-node FIFOs of the packets resident at each node: the service order of
// an arbitrated advance phase (DESIGN.md §8, §10).  Each step visits every
// resident packet, nodes ascending and arrivals in order per node, and that
// order is the submission order the §8 round-robin rotates over.
//
// An occupancy bitmap (bit n set iff node n's FIFO is non-empty) lets the
// visit skip empty nodes 64 at a time, so a step costs O(N/64 + residents)
// instead of touching all N FIFOs — what matters on a large, lightly loaded
// network such as a probe run on 64k nodes.

#include <bit>
#include <cstdint>
#include <vector>

#include "src/mesh/topology.h"

namespace lgfi {

class ResidentQueues {
 public:
  /// Empty FIFOs for nodes [0, node_count).
  explicit ResidentQueues(long long node_count);

  /// Appends `id` to the FIFO at `node`.
  void push(NodeId node, int id) {
    auto& q = fifo_[static_cast<size_t>(node)];
    if (q.empty()) occupied_[word(node)] |= bit(node);
    q.push_back(id);
  }

  /// Removes `id` from the FIFO at `node`, keeping the others in order.
  /// Throws std::logic_error when `id` is not resident there.
  void remove(NodeId node, int id);

  /// The lowest node above `after` with a non-empty FIFO, or kInvalidNode.
  /// Visiting next_occupied(-1), next_occupied(that), ... walks the occupied
  /// nodes in ascending order, 64 nodes per bitmap word.
  [[nodiscard]] NodeId next_occupied(NodeId after) const {
    const auto from = static_cast<size_t>(after + 1);
    size_t w = from / 64;
    if (w >= occupied_.size()) return kInvalidNode;
    uint64_t bits = occupied_[w] & (~uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++w == occupied_.size()) return kInvalidNode;
      bits = occupied_[w];
    }
    return static_cast<NodeId>(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
  }

  /// The FIFO at `node`, oldest arrival first.
  [[nodiscard]] const std::vector<int>& at(NodeId node) const {
    return fifo_[static_cast<size_t>(node)];
  }

  /// Throws std::logic_error unless every node's occupancy bit is set
  /// exactly when its FIFO is non-empty.
  void validate() const;

 private:
  static size_t word(NodeId node) { return static_cast<size_t>(node) / 64; }
  static uint64_t bit(NodeId node) { return uint64_t{1} << (static_cast<size_t>(node) % 64); }

  std::vector<std::vector<int>> fifo_;
  std::vector<uint64_t> occupied_;  ///< bit n set iff fifo_[n] is non-empty
};

}  // namespace lgfi
