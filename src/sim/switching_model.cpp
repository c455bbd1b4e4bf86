#include "src/sim/switching_model.h"

#include "src/sim/link_arbiter.h"
#include "src/sim/resident_queues.h"
#include "src/sim/wormhole_switching.h"

namespace lgfi {

std::unique_ptr<SwitchingModel> make_switching_model(const std::string& name,
                                                     const Topology& mesh,
                                                     const SwitchingOptions& options) {
  return SwitchingModelRegistry::instance().require(name)(mesh, options);
}

// ---------------------------------------------------------------------------
// The ideal model: single-flit packets, one hop per step — the historical
// advance phase, kept byte-identical in both arbitration regimes.
// ---------------------------------------------------------------------------

namespace {

class IdealSwitching final : public SwitchingModel {
 public:
  IdealSwitching(const Topology& mesh, const SwitchingOptions& options)
      : arbitration_(options.link_arbitration), resident_(arbitration_ ? mesh.node_count() : 0) {}

  [[nodiscard]] std::string name() const override { return "ideal"; }
  [[nodiscard]] bool arbitrated() const override { return arbitration_; }

  void add_packet(int id, NodeId source) override {
    if (arbitration_) {
      resident_.push(source, id);
    } else {
      order_.push_back(id);
    }
  }

  void advance_step(SwitchingHost& host, LinkArbiter* arbiter) override {
    if (arbitration_) {
      advance_arbitrated(host, *arbiter);
    } else {
      advance_contention_free(host);
    }
  }

  void validate() const override { resident_.validate(); }

 private:
  void advance_contention_free(SwitchingHost& host) {
    // The historical Figure 7 loop: every packet advances unconditionally,
    // one hop per step, in launch order.
    size_t keep = 0;
    for (size_t i = 0; i < order_.size(); ++i) {
      const int id = order_[i];
      const SwitchDecision d = host.decide(id);
      bool finished = false;
      switch (d.action) {
        case SwitchAction::kDeliver:
          host.finish(id, PacketOutcome::kDelivered);
          finished = true;
          break;
        case SwitchAction::kUnreachable:
          host.finish(id, PacketOutcome::kUnreachable);
          finished = true;
          break;
        case SwitchAction::kForward:
        case SwitchAction::kBacktrack:
          finished = host.commit_move(id, d).finished;
          break;
      }
      if (!finished) order_[keep++] = id;
    }
    order_.resize(keep);
  }

  void advance_arbitrated(SwitchingHost& host, LinkArbiter& arbiter) {
    // Decision sub-phase: every in-flight packet decides at its current
    // node, in per-node FIFO service order (nodes ascending, arrivals in
    // order), and moves become channel requests.  Decisions are pure w.r.t.
    // the header (marking happens on the granted traversal), so a stalled
    // packet simply re-decides next step under the then-current information.
    arbiter.begin_step();
    pending_.clear();
    finished_in_place_.clear();
    for (NodeId node = resident_.next_occupied(-1); node != kInvalidNode;
         node = resident_.next_occupied(node)) {
      for (const int id : resident_.at(node)) {
        const SwitchDecision d = host.decide(id);
        switch (d.action) {
          case SwitchAction::kDeliver:
            host.finish(id, PacketOutcome::kDelivered);
            finished_in_place_.emplace_back(node, id);
            break;
          case SwitchAction::kUnreachable:
            host.finish(id, PacketOutcome::kUnreachable);
            finished_in_place_.emplace_back(node, id);
            break;
          case SwitchAction::kForward:
            pending_.push_back({id, d, arbiter.request(node, d.direction), node});
            break;
          case SwitchAction::kBacktrack:
            // Backtracking traverses the channel back to the previous node —
            // it contends like any other traversal.
            pending_.push_back({id, d, arbiter.request(node, d.back), node});
            break;
        }
      }
    }
    for (const auto& [node, id] : finished_in_place_) resident_.remove(node, id);

    arbiter.arbitrate();

    // Traversal sub-phase: winners move one hop; losers stall where they are.
    for (const Pending& p : pending_) {
      if (!arbiter.granted(p.ticket)) {
        host.count_stall(p.id);
        continue;
      }
      const MoveResult r = host.commit_move(p.id, p.decision);
      resident_.remove(p.node, p.id);
      if (!r.finished) resident_.push(r.node, p.id);
    }
  }

  struct Pending {
    int id;
    SwitchDecision decision;
    int ticket;
    NodeId node;
  };

  bool arbitration_;
  /// Contention-free: active packet ids in launch order.
  std::vector<int> order_;
  /// Arbitrated: per-node FIFO of resident active packet ids — the service
  /// order of the advance phase, hence the submission order the arbiter's
  /// round-robin rotates over.
  ResidentQueues resident_;
  /// Per-step scratch of the arbitrated advance, kept to reuse its capacity.
  std::vector<Pending> pending_;
  std::vector<std::pair<NodeId, int>> finished_in_place_;
};

}  // namespace

SwitchingModelRegistry& SwitchingModelRegistry::instance() {
  static SwitchingModelRegistry registry = [] {
    SwitchingModelRegistry r;
    r.add(
        "ideal",
        [](const Topology& mesh, const SwitchingOptions& options) {
          return std::make_unique<IdealSwitching>(mesh, options);
        },
        {"single-flit packets, one hop per step (the historical behavior)", {"arbitration"}});
    r.add(
        "wormhole",
        [](const Topology& mesh, const SwitchingOptions& options) {
          return std::make_unique<WormholeSwitching>(mesh, options);
        },
        {"flit-level switching: virtual channels + credit flow control",
         {"num_vcs", "vc_buffer_depth", "flits_per_packet"}});
    return r;
  }();
  return registry;
}

}  // namespace lgfi
