#include "src/routing/fault_info_router.h"

namespace lgfi {

FaultInfoRouter::FaultInfoRouter(FaultInfoRouterOptions options)
    : options_(std::move(options)) {}

RouteDecision FaultInfoRouter::decide(const RoutingContext& ctx, RoutingHeader& header) {
  const Coord& u = header.current();

  if (u == header.destination()) return RouteDecision{RouteAction::kDelivered};

  // Step 1: a message sitting on a node that has become disabled (or on a
  // source that never was enabled) retreats.
  const NodeStatus us = ctx.field->at(u);
  if (us == NodeStatus::kDisabled || us == NodeStatus::kFaulty) {
    if (header.at_source()) return RouteDecision{RouteAction::kUnreachable};
    return RouteDecision{RouteAction::kBacktrack};
  }

  // Step 2: highest-priority unused outgoing direction.  The reverse of the
  // incoming direction ranks last ("incoming" in the paper's priority list)
  // and is realized as the backtrack below.
  const ClassifiedDirection best = best_candidate(ctx, u, header.destination(), header.top().used,
                                                  header.top().incoming, options_.policy);
  if (best.cls != DirectionClass::kExcluded) {
    RouteDecision d{RouteAction::kForward, best.dir};
    d.detour_preferred = best.cls == DirectionClass::kPreferredDetour;
    return d;
  }

  // Steps 3 and 4.
  if (header.at_source()) return RouteDecision{RouteAction::kUnreachable};
  return RouteDecision{RouteAction::kBacktrack};
}

}  // namespace lgfi
