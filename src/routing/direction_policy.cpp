#include "src/routing/direction_policy.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

#include "src/fault/boundary_model.h"

namespace lgfi {

const char* to_string(DirectionClass c) {
  switch (c) {
    case DirectionClass::kPreferred: return "preferred";
    case DirectionClass::kSpareAlongBlock: return "spare-along-block";
    case DirectionClass::kSpare: return "spare";
    case DirectionClass::kPreferredDetour: return "preferred-but-detour";
    case DirectionClass::kExcluded: return "excluded";
  }
  return "?";
}

bool touches_block(const RoutingContext& ctx, const Coord& u) {
  bool touch = false;
  ctx.mesh->for_each_neighbor(u, [&](Direction, const Coord& nb) {
    if (is_block_member(ctx.field->at(nb))) touch = true;
  });
  return touch;
}

namespace {

/// Dimensions (other than dir.dim()) in which u touches a block member.
bool along_block(const RoutingContext& ctx, const Coord& u, Direction dir) {
  bool along = false;
  ctx.mesh->for_each_neighbor(u, [&](Direction m, const Coord& nb) {
    if (m.dim() == dir.dim()) return;
    if (is_block_member(ctx.field->at(nb))) along = true;
  });
  return along;
}

}  // namespace

DirectionClass classify_direction(const RoutingContext& ctx, const Coord& u, const Coord& dest,
                                  Direction dir, const DirectionSet& used,
                                  const DirectionPolicyOptions& opts) {
  assert(ctx.mesh != nullptr && ctx.field != nullptr);
  if (used.contains(dir)) return DirectionClass::kExcluded;
  if (!ctx.mesh->has_neighbor(u, dir)) return DirectionClass::kExcluded;
  // A link-faulted outgoing channel is as unusable as a missing one; unlike
  // a faulty neighbour it never enters block labeling (DESIGN.md §17).
  if (ctx.links != nullptr && ctx.links->faulty(ctx.mesh->index_of(u), dir))
    return DirectionClass::kExcluded;

  const Coord v = ctx.mesh->step(u, dir);
  const NodeStatus vs = ctx.field->at(v);
  if (opts.avoid_faulty_neighbors && vs == NodeStatus::kFaulty) return DirectionClass::kExcluded;
  if (opts.avoid_disabled_neighbors && vs == NodeStatus::kDisabled)
    return DirectionClass::kExcluded;

  const bool preferred = ctx.mesh->axis_distance(dir.dim(), v[dir.dim()], dest[dir.dim()]) <
                         ctx.mesh->axis_distance(dir.dim(), u[dir.dim()], dest[dir.dim()]);
  if (preferred) {
    if (opts.use_block_info && ctx.info != nullptr) {
      for (const BlockInfo& b : ctx.info->info_at(ctx.mesh->index_of(u))) {
        if (block_cuts_all_minimal_paths(b.box, v, dest))
          return DirectionClass::kPreferredDetour;
      }
    }
    return DirectionClass::kPreferred;
  }
  return along_block(ctx, u, dir) ? DirectionClass::kSpareAlongBlock : DirectionClass::kSpare;
}

std::vector<ClassifiedDirection> ordered_candidates(const RoutingContext& ctx, const Coord& u,
                                                    const Coord& dest, const DirectionSet& used,
                                                    Direction incoming,
                                                    const DirectionPolicyOptions& opts) {
  // The reverse of the arrival move is the paper's lowest-priority "incoming
  // direction": taking it is the backtrack, handled by the router.
  const Direction return_dir = incoming.is_none() ? Direction::none() : incoming.opposite();

  std::vector<ClassifiedDirection> out;
  for (int i = 0; i < ctx.mesh->direction_count(); ++i) {
    const Direction d = Direction::from_index(i);
    if (!return_dir.is_none() && d == return_dir) continue;
    const DirectionClass cls = classify_direction(ctx, u, dest, d, used, opts);
    if (cls != DirectionClass::kExcluded) out.push_back(ClassifiedDirection{d, cls});
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const ClassifiedDirection& a, const ClassifiedDirection& b) {
                     if (a.cls != b.cls) return a.cls < b.cls;
                     return a.dir.index() < b.dir.index();
                   });
  return out;
}

ClassifiedDirection best_candidate(const RoutingContext& ctx, const Coord& u, const Coord& dest,
                                   const DirectionSet& used, Direction incoming,
                                   const DirectionPolicyOptions& opts) {
  assert(ctx.mesh != nullptr && ctx.field != nullptr);
  const Topology& mesh = *ctx.mesh;
  const NodeId uid = mesh.index_of(u);
  const int directions = mesh.direction_count();

  // Directions are visited in index order, so the first survivor of a class
  // is that class's best; a preferred survivor is the answer outright.
  uint32_t skip = used.raw();
  if (!incoming.is_none()) skip |= 1u << incoming.opposite().index();
  uint32_t spares = 0;  // surviving non-preferred directions, bit = index
  Direction detour = Direction::none();
  for (int i = 0; i < directions; ++i) {
    if ((skip >> i) & 1u) continue;
    const Direction dir = Direction::from_index(i);
    const NodeId v = mesh.neighbor(uid, u, dir);
    if (v == kInvalidNode) continue;
    if (ctx.links != nullptr && ctx.links->faulty(uid, dir)) continue;
    const NodeStatus vs = ctx.field->at(v);
    if (opts.avoid_faulty_neighbors && vs == NodeStatus::kFaulty) continue;
    if (opts.avoid_disabled_neighbors && vs == NodeStatus::kDisabled) continue;

    const int dim = dir.dim();
    const int e = mesh.extent(dim);
    int vd = u[dim] + dir.sign();
    if (vd < 0) vd += e;
    if (vd >= e) vd -= e;
    if (mesh.axis_distance(dim, vd, dest[dim]) >= mesh.axis_distance(dim, u[dim], dest[dim])) {
      spares |= 1u << i;
      continue;
    }
    bool cut = false;
    if (opts.use_block_info && ctx.info != nullptr) {
      const Coord vc = u.with(dim, vd);
      for (const BlockInfo& b : ctx.info->info_at(uid)) {
        if (block_cuts_all_minimal_paths(b.box, vc, dest)) {
          cut = true;
          break;
        }
      }
    }
    if (!cut) return ClassifiedDirection{dir, DirectionClass::kPreferred};
    if (detour.is_none()) detour = dir;
  }

  if (spares != 0) {
    // Bit d set: u has a block-member channel neighbour along dimension d.
    // A spare slides along a block when some *other* dimension is set.
    uint32_t block_dims = 0;
    for (int i = 0; i < directions; ++i) {
      const Direction dir = Direction::from_index(i);
      const NodeId v = mesh.neighbor(uid, u, dir);
      if (v != kInvalidNode && is_block_member(ctx.field->at(v))) block_dims |= 1u << dir.dim();
    }
    for (uint32_t rest = spares; rest != 0; rest &= rest - 1) {
      const Direction dir = Direction::from_index(std::countr_zero(rest));
      if ((block_dims & ~(1u << dir.dim())) != 0)
        return ClassifiedDirection{dir, DirectionClass::kSpareAlongBlock};
    }
    return ClassifiedDirection{Direction::from_index(std::countr_zero(spares)),
                               DirectionClass::kSpare};
  }
  if (!detour.is_none()) return ClassifiedDirection{detour, DirectionClass::kPreferredDetour};
  return ClassifiedDirection{};
}

}  // namespace lgfi
