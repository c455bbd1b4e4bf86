#include "src/sim/traffic_pattern.h"

#include <algorithm>
#include <numeric>

namespace lgfi {

Coord mesh_center(const Topology& mesh) {
  Coord c(mesh.dims());
  for (int d = 0; d < mesh.dims(); ++d) c[d] = mesh.extent(d) / 2;
  return c;
}

std::unique_ptr<TrafficPattern> make_traffic_pattern(const std::string& name,
                                                     const Topology& mesh,
                                                     const Config& config, Rng& rng) {
  return TrafficPatternRegistry::instance().require(name)(mesh, config, rng);
}

// ---------------------------------------------------------------------------
// Built-in patterns.
// ---------------------------------------------------------------------------
namespace {

class UniformPattern final : public TrafficPattern {
 public:
  explicit UniformPattern(const Topology& mesh) : mesh_(&mesh) {}

  Coord destination(const Coord& source, Rng& rng) override {
    if (mesh_->node_count() <= 1) return source;
    for (;;) {
      const Coord d = mesh_->coord_of(
          static_cast<NodeId>(rng.next_below(static_cast<uint64_t>(mesh_->node_count()))));
      if (d != source) return d;
    }
  }

  std::string name() const override { return "uniform"; }

 private:
  const Topology* mesh_;
};

class TransposePattern final : public TrafficPattern {
 public:
  explicit TransposePattern(const Topology& mesh) : mesh_(&mesh) {
    for (int d = 0; d < mesh.dims(); ++d)
      if (mesh.extent(d) != mesh.extent(0))
        throw ConfigError("traffic=transpose needs equal extents in every dimension");
  }

  Coord destination(const Coord& source, Rng&) override {
    // The n-D generalization of (x, y) -> (y, x): coordinates rotated one
    // dimension.  Nodes on the rotation's fixed set map to themselves and do
    // not inject.
    Coord d(mesh_->dims());
    for (int i = 0; i < mesh_->dims(); ++i) d[i] = source[(i + 1) % mesh_->dims()];
    return d;
  }

  std::string name() const override { return "transpose"; }

 private:
  const Topology* mesh_;
};

class BitComplementPattern final : public TrafficPattern {
 public:
  explicit BitComplementPattern(const Topology& mesh) : mesh_(&mesh) {}

  Coord destination(const Coord& source, Rng&) override {
    Coord d(mesh_->dims());
    for (int i = 0; i < mesh_->dims(); ++i) d[i] = mesh_->extent(i) - 1 - source[i];
    return d;
  }

  std::string name() const override { return "bit_complement"; }

 private:
  const Topology* mesh_;
};

class HotspotPattern final : public TrafficPattern {
 public:
  HotspotPattern(const Topology& mesh, double frac)
      : uniform_(mesh), hotspot_(mesh_center(mesh)), frac_(frac) {
    if (frac < 0.0 || frac > 1.0)
      throw ConfigError("hotspot_frac must be in [0, 1]");
  }

  Coord destination(const Coord& source, Rng& rng) override {
    // The hotspot node itself (and the draw deciding hot vs background) still
    // consumes rng, keeping the stream layout independent of node position.
    const bool hot = rng.bernoulli(frac_);
    if (hot && source != hotspot_) return hotspot_;
    return uniform_.destination(source, rng);
  }

  std::string name() const override { return "hotspot"; }

 private:
  UniformPattern uniform_;
  Coord hotspot_;
  double frac_;
};

class PermutationPattern final : public TrafficPattern {
 public:
  PermutationPattern(const Topology& mesh, Rng& rng) : mesh_(&mesh) {
    perm_.resize(static_cast<size_t>(mesh.node_count()));
    std::iota(perm_.begin(), perm_.end(), 0);
    rng.shuffle(perm_);
  }

  Coord destination(const Coord& source, Rng&) override {
    return mesh_->coord_of(perm_[static_cast<size_t>(mesh_->index_of(source))]);
  }

  std::string name() const override { return "permutation"; }

 private:
  const Topology* mesh_;
  std::vector<NodeId> perm_;
};

}  // namespace

TrafficPatternRegistry& TrafficPatternRegistry::instance() {
  static TrafficPatternRegistry registry = [] {
    TrafficPatternRegistry r;
    r.add(
        "uniform",
        [](const Topology& mesh, const Config&, Rng&) {
          return std::make_unique<UniformPattern>(mesh);
        },
        {"destination uniform over all nodes != source", {}});
    r.add(
        "transpose",
        [](const Topology& mesh, const Config&, Rng&) {
          return std::make_unique<TransposePattern>(mesh);
        },
        {"coordinates rotated one dimension (2-D: (x,y) -> (y,x))", {}});
    r.add(
        "bit_complement",
        [](const Topology& mesh, const Config&, Rng&) {
          return std::make_unique<BitComplementPattern>(mesh);
        },
        {"destination mirrored through the mesh center", {}});
    r.add(
        "hotspot",
        [](const Topology& mesh, const Config& cfg, Rng&) {
          const double frac =
              cfg.defined("hotspot_frac") ? cfg.get_double("hotspot_frac") : kDefaultHotspotFrac;
          return std::make_unique<HotspotPattern>(mesh, frac);
        },
        {"fraction hotspot_frac targets the center node, rest uniform", {"hotspot_frac"}});
    r.add(
        "permutation",
        [](const Topology& mesh, const Config&, Rng& rng) {
          return std::make_unique<PermutationPattern>(mesh, rng);
        },
        {"one fixed random node permutation per workload", {}});
    return r;
  }();
  return registry;
}

}  // namespace lgfi
