// The n-level identification process (Algorithm 2 step 3).
//
// A new n-level corner launches a process: phase-1 edge walks along n-1 of
// its n envelope edges; every edge node passed activates a down-level
// process identifying its slice's section (recursively, down to the level-2
// base case where two ring walkers traverse the section's envelope ring and
// meet at the opposite 2-level corner); phase-3 collectors ride each
// opposite edge gathering section results and deliver them to the corner
// opposite the initiation corner, where the block information forms.
//
// All decisions are local: handlers validate the node against its own
// Definition-2 level entry (anchor + level) and discard the message when the
// expectation fails — the paper's "if there is a faulty or disabled neighbor
// in the forwarding direction, the new block is not stable ... the message
// is discarded".  TTLs bound every walk and every wait.
//
// In n >= 4 the recursion reaches a section once per ordering of the walked
// dimensions, through that many parent chains.  Their processes would be
// identical but for the chain, so one process serves them all: its messages
// carry the set of chains (launch_subprocess), and every chain keeps its own
// bookkeeping (DESIGN.md §14).

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <vector>

#include "src/fault/distributed_messages.h"

namespace lgfi {

namespace {

/// Dims present in a mask, ascending, in fixed inline storage: the handlers
/// below take this list for every identification message they see.
class MaskDims {
 public:
  explicit MaskDims(uint8_t mask) {
    for (int d = 0; d < kMaxDims; ++d)
      if (mask & (1u << d)) dims_[static_cast<size_t>(size_++)] = static_cast<int8_t>(d);
  }
  [[nodiscard]] size_t size() const { return static_cast<size_t>(size_); }
  [[nodiscard]] int operator[](size_t i) const { return dims_[i]; }
  [[nodiscard]] const int8_t* begin() const { return dims_.data(); }
  [[nodiscard]] const int8_t* end() const { return dims_.data() + size_; }

 private:
  std::array<int8_t, kMaxDims> dims_{};
  int size_ = 0;
};

/// Pooled chain sets are recycled once the pool holds this many chains and
/// has doubled since the last recycling.
constexpr size_t kMinChainPoolRecycle = size_t{1} << 16;

}  // namespace

/// Identity of a process instance under one parent chain.  One merged
/// process serves several chains, but each chain counts its own arrivals at
/// an opposite corner and stores and looks up its own slice results, keyed
/// as if it had run alone: by pid, level, free mask and the chain's whole
/// stack.  Keying by (pid, level) alone would conflate the chains'
/// completions.
uint64_t DistributedFaultModel::instance_key(uint64_t pid, int level, uint8_t free_mask,
                                             ParentChain chain) {
  uint64_t h = pid * 0x9E3779B97F4A7C15ull + 0xD6E8FEB86659FD93ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(level));
  mix(static_cast<uint64_t>(free_mask));
  for (int i = 0; i < chain.depth(); ++i) {
    mix(static_cast<uint64_t>(chain.dim(i) + 1));
    mix(static_cast<uint64_t>(chain.sign(i) + 2));
  }
  return h;
}

std::span<const DistributedFaultModel::ParentChain> DistributedFaultModel::chains_of(
    const IdentMessage& m) const {
  if (!m.chains.pooled()) return {&m.chains, 1};
  const ChainSet& set = chain_sets_[m.chains.set_index()];
  return {chain_pool_.data() + set.begin, set.size};
}

DistributedFaultModel::ParentChain DistributedFaultModel::chains_field(
    std::span<const ParentChain> chains) {
  assert(!chains.empty());
  if (chains.size() == 1) return chains.front();
  chain_sets_.push_back(
      {static_cast<uint32_t>(chain_pool_.size()), static_cast<uint32_t>(chains.size())});
  chain_pool_.insert(chain_pool_.end(), chains.begin(), chains.end());
  return ParentChain::pool_handle(chain_sets_.size() - 1);
}

void DistributedFaultModel::finish_node_launches() {
  for (const SectionLaunch& launch : node_launches_) {
    if (launch.chain_count < 2 || launch.message_count == 0) continue;
    chain_scratch_.clear();
    uint32_t link = launch.first_link;
    for (uint32_t k = 0; k < launch.chain_count; ++k, link = launch_links_[link].next)
      chain_scratch_.push_back(ParentChain{launch_links_[link].chain});
    const ParentChain handle = chains_field(chain_scratch_);
    for (uint32_t i = 0; i < launch.message_count; ++i)
      ident_mail_->pending_at(launch.first_message + i).chains = handle;
  }
  node_launches_.clear();
  launch_links_.clear();
}

void DistributedFaultModel::recycle_chain_sets() {
  if (ident_mail_->pending() == 0) {
    chain_pool_.clear();
    chain_sets_.clear();
    return;
  }
  if (chain_pool_.size() < std::max(kMinChainPoolRecycle, chain_pool_recycle_at_)) return;
  // Copy the sets that pending messages still name into a fresh pool.
  std::vector<ParentChain> pool;
  std::vector<ChainSet> sets;
  constexpr uint32_t kUnmoved = ~0u;
  std::vector<uint32_t> moved_to(chain_sets_.size(), kUnmoved);
  for (size_t i = 0; i < static_cast<size_t>(ident_mail_->pending()); ++i) {
    IdentMessage& msg = ident_mail_->pending_at(i);
    if (!msg.chains.pooled()) continue;
    uint32_t& moved = moved_to[msg.chains.set_index()];
    if (moved == kUnmoved) {
      const ChainSet& set = chain_sets_[msg.chains.set_index()];
      moved = static_cast<uint32_t>(sets.size());
      sets.push_back({static_cast<uint32_t>(pool.size()), set.size});
      pool.insert(pool.end(), chain_pool_.begin() + set.begin,
                  chain_pool_.begin() + set.begin + set.size);
    }
    msg.chains = ParentChain::pool_handle(moved);
  }
  chain_pool_.swap(pool);
  chain_sets_.swap(sets);
  chain_pool_recycle_at_ = 2 * chain_pool_.size();
}

bool DistributedFaultModel::evaluate_corner_node(NodeId id, int retry) {
  const int n = mesh_->dims();
  bool uncovered_corner = false;
  for (const auto& e : levels_[static_cast<size_t>(id)]) {
    if (e.level != n) continue;
    // Already have block information covering this anchor?  Then the
    // reactive model does not restart anything.
    bool covered = false;
    for (const auto& held : info_.at(id))
      if (held.box.contains(e.anchor)) covered = true;
    if (covered) continue;

    const uint64_t anchor_key = static_cast<uint64_t>(CoordHash{}(e.anchor));
    LaunchBook& book = *launch_book_.try_emplace(id, anchor_key).first;
    if (book.epoch != epoch_) book = LaunchBook{.epoch = epoch_};
    constexpr int kMaxAttempts = 6;
    if (book.attempts >= kMaxAttempts) continue;  // abandoned this epoch
    uncovered_corner = true;

    if (book.attempts > 0 && rounds_run_ - book.last_round < retry) continue;
    book.last_round = rounds_run_;
    ++book.attempts;
    launch_process(id, e);
  }
  return uncovered_corner;
}

int DistributedFaultModel::launch_retry_interval() const {
  // Retry fast: processes discarded during a converging transient relaunch
  // as soon as the previous attempt had time to finish; duplicate
  // completions dedup at the deposit.
  int max_extent = 0;
  for (int d = 0; d < mesh_->dims(); ++d) max_extent = std::max(max_extent, mesh_->extent(d));
  return 2 * max_extent + 8;
}

void DistributedFaultModel::age_identification_bookkeeping() {
  // Age out bookkeeping of dead processes and launch logs of past epochs.
  if (rounds_run_ % 64 != 0) return;
  const int horizon = 2 * default_ttl();
  const auto expired = [&](NodeId, uint64_t, const auto& entry) {
    return rounds_run_ - entry.round > horizon;
  };
  slice_results_.erase_if(expired);
  corner_collect_.erase_if(expired);
  launch_book_.erase_if(
      [&](NodeId, uint64_t, const LaunchBook& book) { return book.epoch != epoch_; });
}

bool DistributedFaultModel::trigger_identifications() {
  // Only pending corners can launch: a node joins the pending set when it
  // gains a level-n entry, loses covering info, or a new epoch re-arms its
  // abandoned attempts; it keeps itself pending while an uncovered,
  // non-abandoned corner remains (so the round stays active, exactly as when
  // every node is evaluated), and drops out otherwise.
  const int retry = launch_retry_interval();
  auto& cur = corner_cur_;
  cur.clear();
  cur.swap(corner_pending_);
  for (NodeId id : cur) corner_pending_marked_[static_cast<size_t>(id)] = 0;
  std::sort(cur.begin(), cur.end());
  bool uncovered_corner = false;
  for (NodeId id : cur) {
    ++protocol_node_visits_;
    if (evaluate_corner_node(id, retry)) {
      uncovered_corner = true;
      mark_corner_pending(id);
    }
  }
  age_identification_bookkeeping();
  return uncovered_corner;
}

void DistributedFaultModel::launch_process(NodeId corner, const LevelEntry& entry) {
  const Coord c = mesh_->coord_of(corner);
  const int n = mesh_->dims();

  IdentMessage base;
  base.pid = next_pid_++;
  base.level = static_cast<int8_t>(n);
  base.free_mask = static_cast<uint8_t>((1u << n) - 1);
  base.partial = box_packing_.point(entry.anchor);
  base.ttl = static_cast<int16_t>(default_ttl());
  for (int d = 0; d < n; ++d)
    base.out_signs[static_cast<size_t>(d)] = static_cast<int8_t>(c[d] - entry.anchor[d]);

  if (n == 2) {
    // The whole process is the level-2 base case.
    launch_subprocess(c, 2, base.free_mask, base.out_signs, base, -1, 0);
    return;
  }
  // Phase 1: n-1 edge walks (all free dims but the last).
  for (int j = 0; j < n - 1; ++j) {
    IdentMessage m = base;
    m.kind = IdentMessage::kEdgeWalk;
    m.walk_dim = static_cast<int8_t>(j);
    m.walk_sign = static_cast<int8_t>(-base.out_signs[static_cast<size_t>(j)]);
    m.out_signs[static_cast<size_t>(j)] = 0;  // j is the walked dim, not out
    const Coord first = c.shifted(j, m.walk_sign);
    if (!mesh_->in_bounds(first)) continue;
    ident_mail_->send(mesh_->index_of(first), std::move(m));
  }
}

void DistributedFaultModel::launch_subprocess(const Coord& at, int level, uint8_t free_mask,
                                              std::array<int8_t, kMaxDims> out_signs,
                                              const IdentMessage& parent, int parent_walk_dim,
                                              int parent_walk_sign) {
  IdentMessage base;
  base.pid = parent.pid;
  base.level = static_cast<int8_t>(level);
  base.free_mask = free_mask;
  base.out_signs = out_signs;
  base.ttl = parent.ttl;

  const MaskDims dims(free_mask);
  // The subprocess's initiation corner anchor (the diagonal member).
  Coord anchor = at;
  for (int d : dims) anchor = anchor.shifted(d, -out_signs[static_cast<size_t>(d)]);
  base.partial = box_packing_.hull(parent.partial, anchor);

  // The subprocess's chains: the parent's, each with the parent's walk
  // appended (none for the n == 2 base case, which is the top level).
  const std::span<const ParentChain> parents = chains_of(parent);
  const auto child = [&](ParentChain chain) {
    return parent_walk_dim < 0 ? chain : chain.pushed(parent_walk_dim, parent_walk_sign);
  };
  const size_t launch = node_launches_.size();  // recorded below if merging can apply
  if (child(parents.front()).depth() < 2) {
    // One walked dimension or none: no other chain reaches this section.
    assert(parents.size() == 1);
    base.chains = child(parents.front());
  } else {
    // Every ordering of the same walked dimensions reaches this section in
    // this round, with the same partial box and TTL, so their processes are
    // identical but for their chains: a launch that matches an earlier one
    // at this node joins it and sends nothing.
    const auto link = [this](SectionLaunch& l, ParentChain chain) {
      const auto at_link = static_cast<uint32_t>(launch_links_.size());
      launch_links_.push_back({chain.bits, 0});
      if (l.chain_count++ == 0) {
        l.first_link = at_link;
      } else {
        launch_links_[l.last_link].next = at_link;
      }
      l.last_link = at_link;
    };
    for (SectionLaunch& l : node_launches_) {
      if (l.pid != base.pid || l.level != base.level || l.free_mask != free_mask ||
          l.partial != base.partial || l.ttl != base.ttl || l.out_signs != out_signs)
        continue;
      for (ParentChain chain : parents) link(l, child(chain));
      return;
    }
    SectionLaunch& l = node_launches_.emplace_back();
    l.pid = base.pid;
    l.partial = base.partial;
    l.out_signs = out_signs;
    l.ttl = base.ttl;
    l.level = base.level;
    l.free_mask = free_mask;
    l.first_message = static_cast<uint32_t>(ident_mail_->pending());
    for (ParentChain chain : parents) link(l, child(chain));
    // A launch of several chains gets its pooled set, and a later joiner's
    // chains, in finish_node_launches().
    base.chains = child(parents.front());
  }

  if (level == 2) {
    // Base case: two ring walkers around the section.
    assert(dims.size() == 2);
    for (int w = 0; w < 2; ++w) {
      const int walk = dims[static_cast<size_t>(w)];
      const int out = dims[static_cast<size_t>(1 - w)];
      IdentMessage m = base;
      m.kind = IdentMessage::kRingWalk;
      m.walk_dim = static_cast<int8_t>(walk);
      m.walk_sign = static_cast<int8_t>(-out_signs[static_cast<size_t>(walk)]);
      m.out_dim = static_cast<int8_t>(out);
      m.out_signs[static_cast<size_t>(walk)] = 0;
      m.turns = 0;
      const Coord first = at.shifted(walk, m.walk_sign);
      if (!mesh_->in_bounds(first)) continue;
      ident_mail_->send(mesh_->index_of(first), std::move(m));
    }
  } else {
    // level >= 3: phase-1 edge walks along all free dims but the last.
    for (size_t w = 0; w + 1 < dims.size(); ++w) {
      const int j = dims[w];
      IdentMessage m = base;
      m.kind = IdentMessage::kEdgeWalk;
      m.walk_dim = static_cast<int8_t>(j);
      m.walk_sign = static_cast<int8_t>(-out_signs[static_cast<size_t>(j)]);
      m.out_signs[static_cast<size_t>(j)] = 0;
      const Coord first = at.shifted(j, m.walk_sign);
      if (!mesh_->in_bounds(first)) continue;
      ident_mail_->send(mesh_->index_of(first), std::move(m));
    }
  }
  if (launch < node_launches_.size()) {
    SectionLaunch& l = node_launches_[launch];
    l.message_count = static_cast<uint32_t>(ident_mail_->pending()) - l.first_message;
  }
}

void DistributedFaultModel::handle_ident_message(NodeId node, const IdentMessage& m) {
  const Coord c = mesh_->coord_of(node);
  auto trace = [&](const char* what) {
    if (options_.trace)
      std::fprintf(stderr, "[ident r%d] pid=%llu kind=%d lvl=%d at %s: %s\n", rounds_run_,
                   static_cast<unsigned long long>(m.pid), static_cast<int>(m.kind),
                   static_cast<int>(m.level), c.to_string().c_str(), what);
  };
  // What the node forwards (or hands to a completion) is a copy with this
  // hop's TTL spent; discards copy nothing.
  auto forwarded = [&m] {
    IdentMessage f = m;
    --f.ttl;
    return f;
  };
  // An arrival at an opposite corner with section `box`: each chain counts
  // its own arrivals, and the chains whose `needed`-th consistent arrival
  // this is go into completed_.
  auto arrive = [&](PackedBox box, int needed, const char* consistent,
                    const char* inconsistent) {
    completed_.clear();
    for (const ParentChain chain : chains_of(m)) {
      CornerCollect& cc =
          *corner_collect_.try_emplace(node, instance_key(m.pid, m.level, m.free_mask, chain))
               .first;
      cc.round = rounds_run_;
      if (cc.arrivals == 0) {
        cc.box = box;
      } else if (cc.box != box) {
        cc.invalid = true;  // inconsistent sections: not stable
      }
      ++cc.arrivals;
      trace(cc.invalid ? inconsistent : consistent);
      if (cc.arrivals == needed && !cc.invalid) completed_.push_back(chain);
    }
    return !completed_.empty();
  };
  if (m.ttl <= 1) {
    trace("ttl-expired");
    return;
  }
  if (field_.at(node) != NodeStatus::kEnabled) {
    trace("discard-not-enabled");
    return;
  }

  // Anchor this node would have as an edge/side node of the process
  // (inward over the out dims, which exclude the walk dim).
  Coord side_anchor = c;
  for (int d : MaskDims(m.free_mask)) {
    const int8_t sgn = m.out_signs[static_cast<size_t>(d)];
    if (sgn != 0) side_anchor = side_anchor.shifted(d, -sgn);
  }

  switch (m.kind) {
    case IdentMessage::kEdgeWalk: {
      const int j = m.walk_dim;
      if (has_level_entry(node, side_anchor, m.level - 1)) {
        // Still on the edge: hull, activate the slice's down-level process,
        // keep walking.
        IdentMessage f = forwarded();
        f.partial = box_packing_.hull(f.partial, side_anchor);
        uint8_t sub_mask = f.free_mask & static_cast<uint8_t>(~(1u << j));
        launch_subprocess(c, f.level - 1, sub_mask, f.out_signs, f, j, f.walk_sign);
        const Coord next = c.shifted(j, f.walk_sign);
        if (mesh_->in_bounds(next)) ident_mail_->send(mesh_->index_of(next), std::move(f));
        return;
      }
      // Far corner of the edge?
      const Coord corner_anchor = side_anchor.shifted(j, -m.walk_sign);
      if (has_level_entry(node, corner_anchor, m.level)) {
        trace("edge-walk-end");
        return;  // phase 1 done
      }
      trace("edge-walk-discard");
      return;  // unstable: discard
    }

    case IdentMessage::kRingWalk: {
      const int out = m.out_dim;
      const int8_t out_sign = m.out_signs[static_cast<size_t>(out)];
      // Side node: out only in out_dim.
      const Coord expect_side = c.shifted(out, -out_sign);
      if (has_level_entry(node, expect_side, 1)) {
        IdentMessage f = forwarded();
        f.partial = box_packing_.hull(f.partial, expect_side);
        const Coord next = c.shifted(f.walk_dim, f.walk_sign);
        if (mesh_->in_bounds(next)) ident_mail_->send(mesh_->index_of(next), std::move(f));
        return;
      }
      // Corner of the ring: out in out_dim and walk_dim.
      const Coord corner_anchor = expect_side.shifted(m.walk_dim, -m.walk_sign);
      if (has_level_entry(node, corner_anchor, 2)) {
        if (m.turns == 0) {
          IdentMessage f = forwarded();
          f.partial = box_packing_.hull(f.partial, corner_anchor);
          f.out_dim = m.walk_dim;
          f.out_signs[static_cast<size_t>(m.walk_dim)] = m.walk_sign;
          f.walk_dim = static_cast<int8_t>(out);
          f.walk_sign = static_cast<int8_t>(-out_sign);
          f.out_signs[static_cast<size_t>(out)] = 0;
          f.turns = 1;
          const Coord next = c.shifted(f.walk_dim, f.walk_sign);
          if (mesh_->in_bounds(next)) ident_mail_->send(mesh_->index_of(next), std::move(f));
          return;
        }
        // Second corner: the opposite 2-level corner — the section (or, for
        // n == 2, the block) is identified when both walkers agree.
        const PackedBox partial = box_packing_.hull(m.partial, corner_anchor);
        if (arrive(partial, 2, "ring-arrival", "ring-arrival-inconsistent")) {
          // Reconstruct the completion corner's full out signs: the corner
          // is out in the current walk dim too (sign = walk direction), so
          // the collector spawned downstream computes correct anchors.  The
          // section box is `partial`, which every consistent arrival carried.
          IdentMessage f = forwarded();
          f.partial = partial;
          f.out_signs[static_cast<size_t>(f.walk_dim)] = f.walk_sign;
          process_complete(node, f, corner_anchor, completed_);
        }
        return;
      }
      trace("ring-walk-discard");
      return;  // unstable: discard
    }

    case IdentMessage::kCollector: {
      const int j = m.walk_dim;
      if (has_level_entry(node, side_anchor, m.level - 1)) {
        // Opposite-edge node: wait for the slice result, merge, move on.
        // Each chain looks up its own slice result.
        const auto slice_of = [&](ParentChain chain) {
          return slice_results_.find(node, instance_key(m.pid, m.level, m.free_mask, chain));
        };
        const auto same_result = [](const SliceResult* a, const SliceResult* b) {
          return a == nullptr ? b == nullptr : b != nullptr && a->box == b->box;
        };
        const auto go_on = [&](const SliceResult* slice, ParentChain chains) {
          IdentMessage f = forwarded();
          f.chains = chains;
          if (slice == nullptr) {
            ident_mail_->send(node, std::move(f));  // wait one round
            return;
          }
          f.partial = box_packing_.hull(f.partial, slice->box);
          const Coord next = c.shifted(j, f.walk_sign);
          if (mesh_->in_bounds(next)) ident_mail_->send(mesh_->index_of(next), std::move(f));
        };
        const std::span<const ParentChain> chains = chains_of(m);
        const SliceResult* slice = slice_of(chains.front());
        bool agree = true;
        for (size_t i = 1; i < chains.size() && agree; ++i)
          agree = same_result(slice, slice_of(chains[i]));
        if (agree) {
          go_on(slice, m.chains);
          return;
        }
        // Chains whose results differ go on as one message each, so that
        // each still waits for and merges exactly its own slices.
        for (const ParentChain chain : chains) go_on(slice_of(chain), chain);
        return;
      }
      // The opposite corner C' of this level-k process.
      const Coord corner_anchor = side_anchor.shifted(j, -m.walk_sign);
      if (has_level_entry(node, corner_anchor, m.level)) {
        if (arrive(m.partial, m.level - 1, "collector-arrival",
                   "collector-arrival-inconsistent")) {
          IdentMessage f = forwarded();
          f.out_signs[static_cast<size_t>(f.walk_dim)] = f.walk_sign;
          process_complete(node, f, corner_anchor, completed_);
        }
        return;
      }
      trace("collector-discard");
      return;  // unstable: discard
    }
  }
}

void DistributedFaultModel::process_complete(NodeId node, const IdentMessage& m,
                                             const Coord& corner_anchor,
                                             std::span<const ParentChain> done) {
  const Coord c = mesh_->coord_of(node);
  const PackedBox box = m.partial;

  if (done.front().depth() == 0) {
    assert(done.size() == 1);  // the top level has one chain
    // Top-level completion: block information forms at the corner opposite
    // the initialization corner (Algorithm 2 step 3c), then propagates back
    // over the whole envelope (step 4), which also activates the boundary
    // construction.
    const BlockInfo info{box_packing_.unpack(box), epoch_};
    auto& formed = formed_at_corner_[static_cast<size_t>(node)];
    bool known = false;
    for (auto& f : formed) {
      if (f.box == info.box) {
        f.epoch = std::max(f.epoch, info.epoch);
        known = true;
      }
    }
    if (!known) formed.push_back(info);
    // The new formed entry must be condition-checked by this round's cancel
    // phase.
    mark_cancel(node);
    if (options_.trace)
      std::fprintf(stderr, "[ident r%d] pid=%llu BLOCK FORMED at %s box=%s\n", rounds_run_,
                   static_cast<unsigned long long>(m.pid), c.to_string().c_str(),
                   info.box.to_string().c_str());
    if (deposit_info(node, info)) {
      ++envelope_deposits_;
      start_info_flood(node, info);
      spawn_walls_if_ring(node, info);
    }
    return;
  }

  // Slice completions: each chain stores the section for its parent's
  // collector.
  const int parent_level = m.level + 1;
  for (const ParentChain chain : done) {
    const uint64_t parent_key =
        instance_key(m.pid, parent_level,
                     static_cast<uint8_t>(m.free_mask | (1u << chain.last_dim())), chain.popped());
    *slice_results_.try_emplace(node, parent_key).first = SliceResult{box, rounds_run_};
    if (options_.trace)
      std::fprintf(stderr, "[ident r%d] pid=%llu slice-complete lvl=%d at %s box=%s\n",
                   rounds_run_, static_cast<unsigned long long>(m.pid),
                   static_cast<int>(m.level), c.to_string().c_str(),
                   box_packing_.unpack(box).to_string().c_str());
  }

  // Self-start the parent's collector if this is the slice adjacent to the
  // parent's initiation corner (locally detected: the neighbour back along
  // the parent walk is the parent-level corner with our anchor).  The
  // parents under one walk differ only in their chains, so one collector
  // serves them all; walks go in the order their first chain comes.
  std::array<ParentChain, 2 * kMaxDims> walks{};  // one chain per distinct last walk
  size_t walk_count = 0;
  for (const ParentChain chain : done) {
    bool seen = false;
    for (size_t w = 0; w < walk_count && !seen; ++w)
      seen = walks[w].last_dim() == chain.last_dim() && walks[w].last_sign() == chain.last_sign();
    if (!seen) walks[walk_count++] = chain;
  }
  for (size_t w = 0; w < walk_count; ++w) {
    const int pj = walks[w].last_dim();
    const int ps = walks[w].last_sign();
    const Coord q = c.shifted(pj, -ps);
    if (!mesh_->in_bounds(q)) continue;
    bool q_is_parent_corner = false;
    for (const auto& e : levels_before(mesh_->index_of(q)))
      if (e.level == parent_level && e.anchor == corner_anchor) q_is_parent_corner = true;
    if (!q_is_parent_corner) continue;

    chain_scratch_.clear();
    for (const ParentChain chain : done)
      if (chain.last_dim() == pj && chain.last_sign() == ps)
        chain_scratch_.push_back(chain.popped());
    IdentMessage col;
    col.pid = m.pid;
    col.kind = IdentMessage::kCollector;
    col.level = static_cast<int8_t>(parent_level);
    col.walk_dim = static_cast<int8_t>(pj);
    col.walk_sign = static_cast<int8_t>(ps);
    col.free_mask = static_cast<uint8_t>(m.free_mask | (1u << pj));
    col.out_signs = m.out_signs;  // opposite-corner lateral signs
    col.chains = chains_field(chain_scratch_);
    col.partial = box;
    col.ttl = m.ttl;
    const Coord next = c.shifted(pj, ps);
    if (mesh_->in_bounds(next)) ident_mail_->send(mesh_->index_of(next), std::move(col));
  }
}

bool DistributedFaultModel::round_identification() {
  // Deliver last round's messages first so that everything sent below —
  // fresh launches included — travels exactly one hop per round.
  ident_mail_->flip();
  // An uncovered corner counts as activity even between retries: the
  // construction is not done until every corner is covered by block info.
  const bool uncovered = trigger_identifications();
  bool any = false;
  const std::vector<NodeId>& active = ident_mail_->active();
  for (size_t k = 0; k < active.size(); ++k) {
    ++protocol_node_visits_;
    for (const auto& msg : ident_mail_->inbox_at(k)) {
      any = true;
      handle_ident_message(active[k], msg);
    }
    if (!node_launches_.empty()) finish_node_launches();
  }
  recycle_chain_sets();
  return any || uncovered || ident_mail_->pending() > 0;
}

}  // namespace lgfi
