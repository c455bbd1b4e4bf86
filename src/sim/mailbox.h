#pragma once
// Contiguous double-buffered mailboxes for synchronous message passing.
//
// The paper's execution model (Section 5, Figure 7) is synchronous: within a
// round every node reads the messages its neighbours sent in the previous
// round and emits messages that arrive in the next round — information
// advances exactly one hop per round.  MailboxSystem<T> implements that BSP
// contract: send() during round r is only visible through inbox() in round
// r + 1, after flip().  Delivery order within an inbox is the deterministic
// send order, so runs are reproducible.
//
// Layout: one contiguous send buffer per round, not a container per node.
// send() appends (destination, message) to it; flip() groups the buffer by
// destination with a stable counting sort into the delivery buffer, where
// each inbox is one contiguous span.  The only per-node state is a flat
// count array, so a flip costs O(messages + active * log active) and never
// O(N).
//
// Active-set bookkeeping (DESIGN.md §14): the system tracks the nodes with a
// non-empty next-round box, and flip() sorts them, so round loops that
// iterate active() visit inboxes in ascending NodeId order.  That order is
// load-bearing: message emission, and therefore every downstream pid and
// dedup decision, depends on it.  Round loops read inbox k of active() with
// inbox_at(k), O(1); inbox(id) finds a node's inbox by binary search over
// active() and yields an empty span for a node without mail.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/mesh/topology.h"

namespace lgfi {

/// Aggregate counters shared by all mailbox instantiations; benches report
/// these as the protocols' message complexity.
struct MailboxStats {
  long long messages_sent = 0;
  long long rounds_flipped = 0;

  void reset() { *this = MailboxStats{}; }
};

template <typename T>
class MailboxSystem {
 public:
  explicit MailboxSystem(long long node_count)
      : next_count_(static_cast<size_t>(node_count), 0) {}

  /// Queues `msg` for delivery to `to` at the start of the next round.
  void send(NodeId to, T msg) {
    assert(to >= 0 && static_cast<size_t>(to) < next_count_.size());
    if (next_count_[static_cast<size_t>(to)]++ == 0) next_active_.push_back(to);
    sent_to_.push_back(to);
    sent_.push_back(std::move(msg));
    ++stats_.messages_sent;
  }

  /// Messages delivered to `node` this round (sent last round), in send
  /// order.  Valid until the next flip() or clear().
  [[nodiscard]] std::span<const T> inbox(NodeId node) const {
    const auto it = std::lower_bound(active_.begin(), active_.end(), node);
    if (it == active_.end() || *it != node) return {};
    return inbox_at(static_cast<size_t>(it - active_.begin()));
  }

  /// The inbox of active()[k]; same contents and validity as inbox().
  [[nodiscard]] std::span<const T> inbox_at(size_t k) const {
    assert(k < active_.size());
    return std::span<const T>(delivered_).subspan(begin_[k], begin_[k + 1] - begin_[k]);
  }

  /// Ends the round: everything sent becomes next round's inboxes.
  void flip() {
    active_.swap(next_active_);
    next_active_.clear();
    // Ascending delivery order (see header comment).
    std::sort(active_.begin(), active_.end());
    // Counting sort by destination: next_count_ turns from per-node counts
    // into per-node write cursors, then back to zero for the next round.
    begin_.resize(active_.size() + 1);
    uint32_t offset = 0;
    for (size_t k = 0; k < active_.size(); ++k) {
      uint32_t& slot = next_count_[static_cast<size_t>(active_[k])];
      begin_[k] = offset;
      offset += slot;
      slot = begin_[k];
    }
    begin_[active_.size()] = offset;
    delivered_.resize(sent_.size());
    for (size_t i = 0; i < sent_.size(); ++i)
      delivered_[next_count_[static_cast<size_t>(sent_to_[i])]++] = std::move(sent_[i]);
    for (NodeId id : active_) next_count_[static_cast<size_t>(id)] = 0;
    sent_.clear();
    sent_to_.clear();
    ++stats_.rounds_flipped;
  }

  /// Nodes with a non-empty inbox this round, ascending.
  [[nodiscard]] const std::vector<NodeId>& active() const { return active_; }

  /// True if no message is waiting for the next round (quiescence test
  /// component; protocols also check for local state changes).
  [[nodiscard]] bool next_round_empty() const { return sent_.empty(); }

  /// Number of messages that will be delivered next round.
  [[nodiscard]] long long pending() const { return static_cast<long long>(sent_.size()); }

  /// The i-th message sent this round (i < pending()), in send order, for
  /// amending before flip(); its destination stays.
  [[nodiscard]] T& pending_at(size_t i) {
    assert(i < sent_.size());
    return sent_[i];
  }

  void clear() {
    for (NodeId id : next_active_) next_count_[static_cast<size_t>(id)] = 0;
    active_.clear();
    next_active_.clear();
    begin_.clear();
    delivered_.clear();
    sent_.clear();
    sent_to_.clear();
  }

  [[nodiscard]] const MailboxStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Resident bytes (the per-node count array plus retained buffer
  /// capacity); feeds the bytes/node bench counter.
  [[nodiscard]] long long memory_bytes() const {
    return static_cast<long long>(
        next_count_.capacity() * sizeof(uint32_t) +
        (sent_.capacity() + delivered_.capacity()) * sizeof(T) +
        (sent_to_.capacity() + active_.capacity() + next_active_.capacity()) * sizeof(NodeId) +
        begin_.capacity() * sizeof(uint32_t));
  }

 private:
  std::vector<uint32_t> next_count_;  ///< per node: messages sent this round
  std::vector<T> sent_;               ///< next round's messages, send order
  std::vector<NodeId> sent_to_;       ///< destination of each sent_ entry
  std::vector<NodeId> next_active_;   ///< destinations of sent_, first-send order
  std::vector<T> delivered_;          ///< this round's messages, grouped by node
  std::vector<NodeId> active_;        ///< non-empty inboxes, ascending
  std::vector<uint32_t> begin_;       ///< inbox k spans delivered_[begin_[k], begin_[k+1])
  MailboxStats stats_;
};

}  // namespace lgfi
