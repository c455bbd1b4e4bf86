#pragma once
// Flit-level wormhole switching with virtual channels (DESIGN.md §10).
//
// Packets serialize into `flits_per_packet` flits and move under the three
// classic router resources:
//
//   virtual channels   each directed physical channel multiplexes `num_vcs`
//                      VCs; a VC is reserved by at most one packet at a time
//   credits            each VC owns a `vc_buffer_depth`-flit buffer at its
//                      downstream node; a flit advances only into free space
//   switch allocation  at most one flit crosses a physical channel per step,
//                      granted by the §8 round-robin LinkArbiter
//
// The model adapts wormhole switching to this paper's routing family, whose
// header is a PCS path-setup probe that may backtrack (routing_header.h).
// A packet's life has two phases:
//
//   setup    the head flit advances as a probe under router decisions,
//            holding VCs on at most the last `flits_per_packet` hops of its
//            path (the physical extent of the worm behind it); hops sliding
//            out of that window release, and a backtrack releases the hop it
//            pops.  Data flits never enter a channel the probe could still
//            abandon (the standard way to combine backtracking with flit
//            pipelining — compressionless / pipelined circuit switching).
//   stream   once the head reaches the destination, its setup holds release
//            and the body flits stream along the recorded path as a true
//            data worm: the lead flit acquires a VC per hop as it advances,
//            flits behind it move under credit flow control, and VCs release
//            behind the tail — the worm occupies a sliding span of a few
//            channels, exactly like wormhole data movement.
//
// Progress and deadlock handling (full argument in DESIGN.md §10):
//   - a probe that cannot win a VC for `vc_stall_limit` consecutive steps
//     backtracks (releasing its newest hold) instead of holding-and-waiting
//     forever;
//   - a streaming worm whose lead flit cannot acquire its next VC for
//     4 * vc_stall_limit consecutive steps is dropped and torn down — the
//     deadlock-recovery discipline (the drop reports as budget_exhausted);
//   - a streaming worm that still needs a node that dies mid-stream (its
//     source, any buffer node, any remaining hop) is torn down and reported
//     unreachable — setup probes instead re-decide against the live field;
//   - the destination ejects one flit per step and the §8 round-robin is
//     starvation-free, so held resources always drain.
//
// Determinism: state is a pure function of the add_packet / advance_step
// sequence; requests are submitted in a fixed service order (probes in
// node-ascending FIFO order, then streaming worms in head-arrival order),
// so the §8 grant sequence — and with it every latency histogram — is
// byte-identical for any thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/resident_queues.h"
#include "src/sim/switching_model.h"

namespace lgfi {

class WormholeSwitching final : public SwitchingModel {
 public:
  /// Throws ConfigError on out-of-range options (num_vcs in [1, 64],
  /// vc_buffer_depth and flits_per_packet in [1, 4096]).
  WormholeSwitching(const Topology& mesh, const SwitchingOptions& options);

  [[nodiscard]] std::string name() const override { return "wormhole"; }
  [[nodiscard]] bool arbitrated() const override { return true; }

  void add_packet(int id, NodeId source) override;
  void advance_step(SwitchingHost& host, LinkArbiter* arbiter) override;

  /// flit_moves, vc_alloc_stalls, forced_backtracks, deadlock_drops, and the
  /// per-VC credit_stalls_vc{v} / switch_stalls_vc{v} counters.
  [[nodiscard]] std::vector<std::pair<std::string, double>> metrics() const override;

  /// Checks buffer occupancies, VC-reservation consistency and per-worm flit
  /// conservation; throws std::logic_error naming the violation.
  void validate() const override;

  // --- observability (tests, benches) --------------------------------------
  /// VCs currently reserved across all channels.
  [[nodiscard]] int reserved_vc_count() const;
  [[nodiscard]] long long total_flit_moves() const { return flit_moves_; }
  [[nodiscard]] long long total_vc_alloc_stalls() const { return vc_alloc_stalls_; }
  [[nodiscard]] long long total_forced_backtracks() const { return forced_backtracks_; }
  [[nodiscard]] long long total_deadlock_drops() const { return deadlock_drops_; }
  [[nodiscard]] long long total_fault_drops() const { return fault_drops_; }

  /// Snapshot of one packet's switching state.
  struct WormView {
    bool streaming = false;   ///< head arrived; flits are streaming
    bool done = false;        ///< finished (any outcome)
    int flits_at_source = 0;  ///< data flits not yet injected
    long long flits_ejected = 0;  ///< flits sunk at the destination
    int held_vcs = 0;             ///< VCs this packet currently reserves
    int buffered_flits = 0;       ///< flits currently in VC buffers
  };
  [[nodiscard]] WormView worm(int id) const;

 private:
  struct Hop {
    int32_t channel = -1;   ///< from-node * dirs + direction index
    NodeId to_node = kInvalidNode;  ///< the channel's receiving node
    int16_t vc = -1;        ///< reserved VC on that channel, or -1 (not held)
    int16_t occupancy = 0;  ///< data flits in the VC's downstream buffer
  };
  struct Worm {
    NodeId node = kInvalidNode;  ///< probe/head node (setup phase)
    bool streaming = false;
    bool done = false;
    int at_source = 0;      ///< data flits waiting at the source
    long long ejected = 0;  ///< flits ejected at the destination (head included)
    int vc_stall = 0;       ///< consecutive VC failures (setup escape rule)
    int stream_stall = 0;   ///< consecutive lead-flit VC failures (drop rule)
    bool fault_checked = false;  ///< stream scanned against the current field
    int held_from = 0;      ///< setup: hops [held_from, size) are reserved
    int tail = 0;           ///< stream: first hop not yet released
    int frontier = 0;       ///< stream: hops [tail, frontier) are reserved
    std::vector<Hop> path;  ///< hops source -> head (mirrors the header path)
  };

  enum class ReqKind : uint8_t { kProbeForward, kProbeBacktrack, kFlit, kAcquireFlit };
  /// One switch request of the current step.
  struct Req {
    int ticket;
    int id;
    ReqKind kind;
    SwitchDecision decision;  // probe kinds only
    int hop;                  // flit kinds: index of the hop being crossed
    int vc_hint;              // kAcquireFlit: the VC seen free at request time
    bool forced;              // kProbeBacktrack: the §10 escape, not the router
  };

  [[nodiscard]] size_t channel_of(NodeId from, Direction dir) const {
    return static_cast<size_t>(from) * static_cast<size_t>(dirs_) +
           static_cast<size_t>(dir.index());
  }
  /// Lowest free VC on `channel`, or -1 when all are reserved.
  [[nodiscard]] int free_vc(int32_t channel) const;
  void reserve(Hop& hop, int vc, int id);
  void release_hop(Hop& hop);
  /// Releases every VC the worm still holds (either phase).
  void release_all(Worm& w);

  const Topology* mesh_;
  SwitchingOptions options_;
  int dirs_;
  std::vector<int32_t> vc_owner_;  ///< (channel * num_vcs + vc) -> worm id or -1
  std::vector<Worm> worms_;        ///< indexed by packet id (dense, launch order)
  ResidentQueues probes_;     ///< setup probes resident per node
  std::vector<int> streams_;  ///< streaming worm ids, head-arrival order
  /// Per-step scratch of advance_step, kept to reuse its capacity.
  std::vector<Req> reqs_;
  std::vector<std::pair<NodeId, int>> leaving_fifo_;
  std::vector<int> new_streams_;
  /// field_version() at the last fault scan; streams rescan only when the
  /// field actually changed (fault-free runs never pay for the scan).
  uint64_t seen_field_version_ = ~0ull;

  long long flit_moves_ = 0;
  long long vc_alloc_stalls_ = 0;
  long long forced_backtracks_ = 0;
  long long deadlock_drops_ = 0;
  long long fault_drops_ = 0;  ///< circuits torn down by a mid-stream fault
  std::vector<long long> credit_stalls_vc_;  ///< flit blocked: buffer full
  std::vector<long long> switch_stalls_vc_;  ///< flit blocked: lost the switch
};

}  // namespace lgfi
