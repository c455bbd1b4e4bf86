#pragma once
// Pluggable switching layer under the phased step pipeline (DESIGN.md §10).
//
// The advance phase of DynamicSimulation — "every in-flight message makes a
// routing decision and traverses a channel" — is really a *switching model*:
// a policy for how packets occupy channels.  This header factors it into an
// interface with implementations registered by name in a NamedRegistry,
// like every other axis:
//
//   ideal     the historical behavior: a packet is a single header flit that
//             advances one hop per step, optionally under §8 link
//             arbitration.  The default — byte-identical to the pre-layer
//             code in both arbitration modes.
//   wormhole  flit-level switching: packets serialize into flits_per_packet
//             flits, channels multiplex num_vcs virtual channels with
//             credit-based buffers of vc_buffer_depth flits, and a VC/switch
//             allocator layers on the §8 round-robin (wormhole_switching.h).
//
// Layering: the model lives in src/sim and never sees RoutingHeader or
// MessageProgress (src/routing, src/core).  It operates on opaque packet
// ids; everything header-shaped flows through the narrow SwitchingHost
// callback interface that DynamicSimulation implements.  The split keeps
// routing *decisions* in src/routing, per-message bookkeeping in src/core,
// and channel-occupancy mechanism here.
//
// Determinism contract (DESIGN.md §2): a model's state must be a pure
// function of the add_packet/advance_step call sequence — no clocks, no
// hashes, no thread identity.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/named_registry.h"
#include "src/mesh/direction.h"
#include "src/mesh/topology.h"

namespace lgfi {

class LinkArbiter;

/// What the router told the host to do with a packet's head this step
/// (RouteAction, re-expressed without the src/routing dependency).
enum class SwitchAction : uint8_t { kDeliver, kUnreachable, kForward, kBacktrack };

struct SwitchDecision {
  SwitchAction action = SwitchAction::kUnreachable;
  Direction direction = Direction::none();  ///< outgoing channel (kForward)
  bool detour_preferred = false;
  /// The channel a backtrack traverses (opposite of the incoming direction);
  /// none at the source.  Supplied on every decision so a model can issue a
  /// resource-releasing backtrack of its own (wormhole's §10 escape rule).
  Direction back = Direction::none();
  /// Model-issued congestion escapes only: after the backtrack, erase the
  /// used mark for the abandoned direction at the node returned to.  The
  /// channel is healthy — merely VC-starved — so the routing search must not
  /// treat the escape as having exhausted it (congestion would otherwise
  /// masquerade as kUnreachable); the step budget bounds the retries.
  bool unmark_on_backtrack = false;
};

enum class PacketOutcome : uint8_t { kDelivered, kUnreachable, kBudgetExhausted };

/// Result of committing one header move.
struct MoveResult {
  NodeId node = kInvalidNode;  ///< the head's node after the move
  bool finished = false;       ///< the move exhausted the step budget
};

/// The callbacks a switching model drives the simulation through.  All
/// per-message bookkeeping (headers, budgets, stall/latency accounting, step
/// counters) stays on the host side; models only sequence the calls.
class SwitchingHost {
 public:
  virtual ~SwitchingHost() = default;

  /// One routing decision for the packet's head at its current node.  Pure
  /// with respect to the header (DESIGN.md §7): safe to call once per packet
  /// per step and discard.
  [[nodiscard]] virtual SwitchDecision decide(int id) = 0;

  /// Applies a kForward/kBacktrack decision to the header (marks + path
  /// stack), counts the move, and applies the step budget.
  virtual MoveResult commit_move(int id, const SwitchDecision& decision) = 0;

  /// Terminal outcome for a packet that did not finish through commit_move.
  virtual void finish(int id, PacketOutcome outcome) = 0;

  /// The packet's head wanted a channel and did not get one this step.
  virtual void count_stall(int id) = 0;

  /// Flit-level models: the packet's head flit reached the destination
  /// (head-latency accounting; delivery happens when the tail ejects).
  virtual void record_head_arrival(int id) = 0;

  /// Flit-level models: `n` data flits traversed channels this step.
  virtual void count_flit_moves(int n) = 0;

  /// Whether `node` is currently faulty (cannot hold or forward flits).
  /// Routing decisions already consult the live field; this lets a
  /// flit-level model notice a node on an established circuit dying
  /// mid-stream.
  [[nodiscard]] virtual bool node_faulty(NodeId node) const = 0;

  /// Whether the directed channel leaving `from` along `dir` is dead (a
  /// link/port fault, DESIGN.md §17).  Default: no link-fault notion.  A
  /// dead channel carries no flits: allocation must skip it and established
  /// streams crossing it tear down like a mid-stream node death.
  [[nodiscard]] virtual bool link_faulty(NodeId from, Direction dir) const {
    (void)from;
    (void)dir;
    return false;
  }

  /// StatusField::version() of the live field — bumped only on real status
  /// changes, so models can skip whole-network rescans while it is stable.
  [[nodiscard]] virtual uint64_t field_version() const = 0;
};

struct SwitchingOptions {
  /// §8 link arbitration (ideal model only; flit-level models always
  /// arbitrate their switch).
  bool link_arbitration = false;
  int num_vcs = 2;           ///< virtual channels per directed channel
  int vc_buffer_depth = 4;   ///< flit buffer depth per VC (credits)
  int flits_per_packet = 4;  ///< head + body + tail flits per packet
  /// Consecutive VC-allocation failures before a holding probe backtracks
  /// (the §10 escape); a streaming worm blocked 4x this long is dropped
  /// (deadlock recovery).
  int vc_stall_limit = 16;
};

class SwitchingModel {
 public:
  virtual ~SwitchingModel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Whether the advance phase needs a LinkArbiter (the host creates one
  /// and passes it to advance_step).
  [[nodiscard]] virtual bool arbitrated() const = 0;

  /// A packet entered the network at `source` (host assigns ids densely in
  /// launch order).
  virtual void add_packet(int id, NodeId source) = 0;

  /// Runs the advance phase of one step: decisions, channel allocation and
  /// traversals, all through `host`.  `arbiter` is non-null iff arbitrated().
  virtual void advance_step(SwitchingHost& host, LinkArbiter* arbiter) = 0;

  /// Model-level aggregate counters (per-VC stalls, flit moves, ...) as
  /// sorted name/value pairs; empty for models with nothing to add.
  [[nodiscard]] virtual std::vector<std::pair<std::string, double>> metrics() const {
    return {};
  }

  /// Checks internal invariants (buffer occupancies within [0, depth],
  /// reservation consistency); throws std::logic_error on violation.  Tests
  /// call this between steps; release paths never pay for it.
  virtual void validate() const {}
};

using SwitchingModelFactory = std::function<std::unique_ptr<SwitchingModel>(
    const Topology& mesh, const SwitchingOptions& options)>;

class SwitchingModelRegistry : public NamedRegistry<SwitchingModelFactory> {
 public:
  /// The process-wide registry, holding the built-in models (ideal, wormhole).
  static SwitchingModelRegistry& instance();

 private:
  SwitchingModelRegistry() : NamedRegistry("switching model") {}
};

/// Builds the named model; throws ConfigError with the known names (and a
/// did-you-mean suggestion) on an unknown `name`, and on out-of-range
/// options.
std::unique_ptr<SwitchingModel> make_switching_model(const std::string& name,
                                                     const Topology& mesh,
                                                     const SwitchingOptions& options);

}  // namespace lgfi
