#pragma once
// The dynamic fault model's step loop (Section 5, Figure 7), structured as a
// phased pipeline (DESIGN.md §7).
//
// At each step, every node: (1) detects adjacent faults/recoveries scheduled
// for this step; (2) collects and distributes the three kinds of fault
// information — block, identifying, boundary — through lambda rounds of
// exchanges, each advancing one hop; (3) receives at most one routing
// message, makes a routing decision, and sends it one hop.  Thus every
// routing message advances one hop per step while the information model
// converges around it — the regime Theorems 3-5 bound.
//
// step() composes three explicit phases over a shared StepContext:
//
//   apply_fault_events      fault detection, occurrence bookkeeping
//   run_information_rounds  lambda rounds of the three constructions
//   arbitrate_and_advance   routing decisions + channel traversal
//
// The advance phase is delegated to a pluggable SwitchingModel (DESIGN.md
// §10): `ideal` (the default) is the historical single-flit behavior — with
// options.link_arbitration it is contention-aware (at most one message per
// directed channel per step, LinkArbiter, DESIGN.md §8; losers stall in the
// holding node's FIFO and retry), without it it is the paper's
// contention-free idealization, byte-identical to the historical loop.
// `wormhole` serializes packets into flits under virtual-channel flow
// control (src/sim/wormhole_switching.h).  DynamicSimulation implements the
// SwitchingHost callbacks, keeping headers, budgets and per-message
// accounting here while the model owns channel occupancy.
//
// The simulation also records the quantities of Table 1: occurrence times
// t_i, per-occurrence convergence rounds a_i (labeling), b_i
// (identification), c_i (boundary), e_max, and per-message D(i) snapshots.
// Per-message state other than the MessageProgress record itself is held
// only while the message is in flight (DESIGN.md §7, "In-flight state").

#include <memory>
#include <vector>

#include "src/core/network.h"
#include "src/core/step_context.h"
#include "src/mesh/link_fault_mask.h"
#include "src/routing/detour_bounds.h"
#include "src/routing/global_table_router.h"
#include "src/routing/oracle_router.h"
#include "src/routing/router_registry.h"
#include "src/sim/fault_schedule.h"
#include "src/sim/fault_timeline.h"
#include "src/sim/link_arbiter.h"
#include "src/sim/switching_model.h"

namespace lgfi {

struct DynamicSimulationOptions {
  int lambda = 1;  ///< information rounds per routing step (Section 5's lambda)
  InfoMode info_mode = InfoMode::kLimitedGlobal;
  /// Registered router name; "auto" pairs the historical router with
  /// info_mode (fault_info / no_info / global_table).
  std::string router = "auto";
  /// Router-level options (oracle_avoid, ecube_strict, ...) forwarded to the
  /// registry factory; an empty config means router defaults.
  Config router_config;
  bool persistent_marks = false;      ///< header ablation (DESIGN.md §6.7)
  /// Contention-aware advance phase: at most one message per directed
  /// channel per step (DESIGN.md §8).  Off = the Figure 7 idealization.
  /// Flit-level switching models arbitrate regardless.
  bool link_arbitration = false;
  /// Registered switching model (DESIGN.md §10): ideal | wormhole.
  std::string switching = "ideal";
  int num_vcs = 2;           ///< wormhole: virtual channels per directed channel
  int vc_buffer_depth = 4;   ///< wormhole: flit buffer depth per VC
  int flits_per_packet = 4;  ///< wormhole: flits per packet (head + body + tail)
  DistributedModelOptions model;
  long long step_budget_per_message = 0;  ///< 0: 4 * 2n * N safety net
};

/// One routing message progressing through the dynamic system.
struct MessageProgress {
  int id = 0;
  RoutingHeader header;
  bool delivered = false;
  bool unreachable = false;
  bool budget_exhausted = false;
  long long start_step = 0;    ///< the paper's t
  long long end_step = -1;
  int initial_distance = 0;    ///< D
  int detour_preferred_taken = 0;
  /// Steps spent waiting for a contended channel (link_arbitration only);
  /// latency = moves + stalls, so end_step - start_step ==
  /// header.total_steps() + stall_steps for a delivered message under the
  /// ideal switching model (wormhole adds flit-serialization steps).
  int stall_steps = 0;
  /// Wormhole switching: step at which the head flit reached the
  /// destination (delivery happens when the tail ejects); -1 under ideal
  /// switching, where head arrival *is* delivery.
  long long head_arrival_step = -1;
  /// D(i) recorded while in flight: entry k is D at occurrence
  /// first_occurrence + k, one entry per occurrence until the message is
  /// seen finished.  Read the whole trajectory through distance_at().
  std::vector<int> distance_at_occurrence;
  size_t first_occurrence = 0;  ///< occurrences that happened before launch
  /// D(i) at every occurrence after the message finished: 0 once delivered
  /// or unreachable, min_hops(final position, destination) once exhausted.
  int settled_distance = 0;

  /// `min_distance` is the topology's fault-free min_hops(s, d) — the
  /// baseline detours() measures against.  `path_storage` is a released
  /// path stack for the header to reuse.
  MessageProgress(int id_, const Coord& s, const Coord& d, int min_distance,
                  std::vector<PathEntry> path_storage = {})
      : id(id_), header(s, d, std::move(path_storage)), initial_distance(min_distance) {}

  [[nodiscard]] bool done() const { return delivered || unreachable || budget_exhausted; }

  /// D(i), Theorem 3's measured trajectory, at occurrence i of the
  /// simulation (valid for i < occurrences().size()): D before launch, the
  /// recorded value while in flight, settled_distance afterwards.
  [[nodiscard]] int distance_at(size_t i) const {
    if (i < first_occurrence) return initial_distance;
    const size_t k = i - first_occurrence;
    return k < distance_at_occurrence.size() ? distance_at_occurrence[k] : settled_distance;
  }

  /// Extra steps beyond the fault-free minimum once delivered.
  [[nodiscard]] long long detours() const {
    return header.total_steps() - initial_distance;
  }
};

/// Per-fault-occurrence convergence record (the a_i, b_i, c_i of Table 1).
struct OccurrenceRecord {
  long long step = 0;      ///< t_i
  Coord origin;            ///< site of the change (first event of the occurrence)
  int rounds_labeling = 0;       ///< a_i (in rounds)
  int rounds_identification = 0; ///< b_i
  int rounds_boundary = 0;       ///< c_i
  int e_max_after = 0;           ///< max block edge once stabilized
  bool stabilized_before_next = true;
};

class DynamicSimulation final : public SwitchingHost {
 public:
  /// Lifecycle form: the timeline heap drives the fault phase directly
  /// (O(log events) per step regardless of schedule length, DESIGN.md §17).
  DynamicSimulation(const Topology& mesh, FaultTimeline timeline,
                    DynamicSimulationOptions options = {});
  /// Static-schedule form (every historical fault model): converts to a
  /// timeline, order preserved — byte-identical trajectories.
  DynamicSimulation(const Topology& mesh, const FaultSchedule& schedule,
                    DynamicSimulationOptions options = {});

  /// Injects a routing message at `source` toward `dest`; it advances one
  /// hop per subsequent step.  Returns the message id.
  int launch_message(const Coord& source, const Coord& dest);

  // --- the phased pipeline (DESIGN.md §7) ---------------------------------
  /// Opens a step: a StepContext carrying the step number.
  [[nodiscard]] StepContext begin_step();
  /// Phase 1: fault detection — applies the schedule's events for this step
  /// and opens the occurrence record.
  void apply_fault_events(StepContext& ctx);
  /// Phase 2: lambda rounds of the three information constructions, plus
  /// convergence bookkeeping and (delayed-global) snapshot publication.
  void run_information_rounds(StepContext& ctx);
  /// Phase 3: routing decisions for every in-flight message, then channel
  /// traversal — arbitrated per directed channel when link_arbitration is
  /// on, unconditional otherwise.  Builds ctx.routing on entry.
  void arbitrate_and_advance(StepContext& ctx);
  /// Closes the step (advances the clock).
  void end_step(StepContext& ctx);

  /// Runs one step of the Figure 7 loop — the composed pipeline.
  void step();

  /// Runs until all messages finished and the schedule is exhausted (with a
  /// hard step cap).
  void run(long long max_steps = 1 << 20);

  [[nodiscard]] long long now() const { return now_; }
  [[nodiscard]] const std::vector<MessageProgress>& messages() const { return messages_; }
  [[nodiscard]] const MessageProgress& message(int id) const {
    return messages_[static_cast<size_t>(id)];
  }
  [[nodiscard]] const std::vector<OccurrenceRecord>& occurrences() const {
    return occurrences_;
  }
  [[nodiscard]] const DistributedFaultModel& model() const { return model_; }
  [[nodiscard]] const Topology& mesh() const { return *mesh_; }
  /// The directed-channel fault state (lifecycle_links); empty otherwise.
  [[nodiscard]] const LinkFaultMask& link_faults() const { return link_faults_; }
  /// Step of the first message declared unreachable, or -1 if none was —
  /// the time-to-first-unreachable reliability metric (E17).
  [[nodiscard]] long long first_unreachable_step() const { return first_unreachable_step_; }
  /// Resident bytes of the fault machinery: protocol state plus the
  /// lifecycle timeline heap and the link-fault mask (pinned alongside the
  /// model's own accounting by the quiescent-step bench).
  [[nodiscard]] long long memory_bytes() const {
    return model_.memory_bytes() + timeline_.memory_bytes() + link_faults_.memory_bytes();
  }
  /// The delayed-global provider, or null unless info_mode=kDelayedGlobal.
  [[nodiscard]] const DelayedGlobalInfoProvider* delayed_provider() const {
    return delayed_provider_.get();
  }

  /// Messages launched but not yet delivered/unreachable/budget-exhausted.
  /// Maintained incrementally, so the run() loop's termination test is O(1)
  /// even with thousands of injected messages.
  [[nodiscard]] long long active_messages() const { return active_messages_; }
  [[nodiscard]] bool all_messages_done() const { return active_messages_ == 0; }

  /// Path stacks released by finished messages and not yet reused by a
  /// launch; never more than the peak number of messages in flight.
  [[nodiscard]] size_t pooled_path_stacks() const { return path_pool_.size(); }

  /// Total channel-traversal requests denied by arbitration so far.
  [[nodiscard]] long long total_stalls() const {
    return arbiter_ ? arbiter_->total_stalled() : 0;
  }

  /// The switching model executing the advance phase (DESIGN.md §10).
  [[nodiscard]] const SwitchingModel& switching() const { return *switching_; }
  [[nodiscard]] SwitchingModel& switching() { return *switching_; }

  /// Builds the Theorem 3/4/5 timeline from the recorded occurrences (a_i in
  /// steps, i.e. ceil(rounds / lambda)).
  [[nodiscard]] DynamicFaultTimeline timeline(long long route_start) const;

  // --- SwitchingHost (called by the model during arbitrate_and_advance) ----
  [[nodiscard]] SwitchDecision decide(int id) override;
  MoveResult commit_move(int id, const SwitchDecision& decision) override;
  void finish(int id, PacketOutcome outcome) override;
  void count_stall(int id) override;
  void record_head_arrival(int id) override;
  void count_flit_moves(int n) override;
  [[nodiscard]] bool node_faulty(NodeId node) const override;
  [[nodiscard]] bool link_faulty(NodeId from, Direction dir) const override;
  [[nodiscard]] uint64_t field_version() const override;

 private:
  [[nodiscard]] RoutingContext context() const;
  void finish_message(MessageProgress& msg, StepContext& ctx);

  const Topology* mesh_;
  FaultTimeline timeline_;
  LinkFaultMask link_faults_;
  DynamicSimulationOptions options_;
  DistributedFaultModel model_;
  StoreInfoProvider limited_provider_;
  EmptyInfoProvider empty_provider_;
  GlobalInfoProvider instant_provider_;
  std::unique_ptr<DelayedGlobalInfoProvider> delayed_provider_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<SwitchingModel> switching_;
  std::unique_ptr<LinkArbiter> arbiter_;  ///< present iff switching_->arbitrated()

  std::vector<MessageProgress> messages_;
  /// Ids of messages not yet seen finished, in launch order: the only
  /// messages an occurrence records D(i) for.
  std::vector<int> unsettled_;
  /// Path stacks of finished messages, handed to the next launches.
  std::vector<std::vector<PathEntry>> path_pool_;
  std::vector<OccurrenceRecord> occurrences_;
  long long now_ = 0;
  long long active_messages_ = 0;
  long long first_unreachable_step_ = -1;
  /// Open occurrence currently converging (index into occurrences_), or -1.
  int converging_ = -1;
  /// Host-callback context, valid only inside arbitrate_and_advance.
  StepContext* step_ctx_ = nullptr;
  long long step_budget_ = 0;
};

}  // namespace lgfi
