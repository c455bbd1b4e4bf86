#pragma once
// Per-channel link arbitration for the contention-aware traffic engine.
//
// The Figure 7 idealization lets every in-flight message advance one hop per
// step regardless of what other messages do.  Real interconnects serialize:
// a directed channel u -> v carries at most one message per step.
// LinkArbiter enforces that rule for the step pipeline (DESIGN.md §8): each
// step, messages submit traversal requests in per-node FIFO order;
// arbitrate() grants exactly one request per directed channel and the losers
// stall where they are until a later step.
//
// Determinism: the winner of a contended channel is picked by a per-channel
// round-robin cursor over the submission order.  The cursor advances only
// when the channel was actually contended, so uncontended traffic never
// perturbs it, and the whole grant sequence is a pure function of the
// request sequence — independent of thread count, hash order, or wall time.

#include <cstdint>
#include <vector>

#include "src/mesh/direction.h"
#include "src/mesh/link_fault_mask.h"
#include "src/mesh/topology.h"

namespace lgfi {

class LinkArbiter {
 public:
  explicit LinkArbiter(const Topology& mesh);

  /// Clears the step's requests.  Grant history — the round-robin cursors —
  /// persists across steps; that persistence is what makes repeated
  /// contention on the same channel rotate through the contenders.
  void begin_step();

  /// Submits a request to traverse the directed channel out of `from` along
  /// `dir`.  Returns a ticket to query with granted() after arbitrate().
  int request(NodeId from, Direction dir);

  /// Resolves the step: per requested channel, the requester at the
  /// channel's cursor position (counting in submission order) wins; everyone
  /// else stalls.  Requests on a link-faulted channel are denied outright —
  /// every contender stalls and the round-robin cursor stays put, so the
  /// rotation resumes where it left off once the link repairs.
  void arbitrate();

  /// Attaches the directed-channel fault mask (DESIGN.md §17); null (the
  /// default) means no link faults exist.  The mask outlives the arbiter.
  void set_link_faults(const LinkFaultMask* links) { links_ = links; }

  [[nodiscard]] bool granted(int ticket) const {
    return granted_[static_cast<size_t>(ticket)] != 0;
  }

  [[nodiscard]] long long requests_this_step() const {
    return static_cast<long long>(granted_.size());
  }
  [[nodiscard]] long long stalled_this_step() const { return stalled_this_step_; }
  [[nodiscard]] long long total_stalled() const { return total_stalled_; }

 private:
  [[nodiscard]] size_t channel_of(NodeId from, Direction dir) const {
    return static_cast<size_t>(from) * static_cast<size_t>(dirs_) +
           static_cast<size_t>(dir.index());
  }

  int dirs_;
  const LinkFaultMask* links_ = nullptr;
  std::vector<uint32_t> cursor_;  ///< per-channel round-robin position
  /// This step's requests as (channel << 32 | ticket).  Keys are unique, so
  /// sorting them groups tickets by channel in submission order.
  std::vector<uint64_t> keys_;
  std::vector<uint8_t> granted_;  ///< ticket -> outcome (this step)
  long long stalled_this_step_ = 0;
  long long total_stalled_ = 0;
};

}  // namespace lgfi
