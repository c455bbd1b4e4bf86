#pragma once
// Synthetic traffic patterns behind a registered factory.
//
// Interconnect evaluation measures latency/throughput curves under synthetic
// workloads; each pattern maps an injecting source to a destination (the
// booksim traffic-pattern vocabulary, generalized to k-ary n-D meshes).
// Patterns register by name in a NamedRegistry, like every other axis, so
// the traffic engine, benches and the sweep CLI build them from a Config
// string and never name a concrete type.
//
// Registered names:
//   uniform         destination uniform over all nodes != source
//   transpose       coordinates rotated one dimension (2-D: (x,y) -> (y,x))
//   bit_complement  destination mirrored through the mesh center
//   hotspot         fraction `hotspot_frac` targets the center node, rest uniform
//   permutation     one fixed random node permutation per workload
//
// A pattern may return the source itself; that means "this node does not
// inject under this pattern" (e.g. the diagonal of transpose, fixed points
// of the permutation) and the workload skips the injection slot.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/named_registry.h"
#include "src/mesh/topology.h"
#include "src/sim/rng.h"

namespace lgfi {

/// Fraction of hotspot-pattern injections that target the center node when
/// the config leaves `hotspot_frac` undefined; also the experiment-config
/// default, so the two surfaces cannot drift apart.
inline constexpr double kDefaultHotspotFrac = 0.1;

class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;

  /// Destination for a message injected at `source`.  May consult `rng` (the
  /// replication's private stream), so sampling is deterministic per
  /// replication and thread-count independent.
  [[nodiscard]] virtual Coord destination(const Coord& source, Rng& rng) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

using TrafficPatternFactory = std::function<std::unique_ptr<TrafficPattern>(
    const Topology& mesh, const Config& config, Rng& rng)>;

class TrafficPatternRegistry : public NamedRegistry<TrafficPatternFactory> {
 public:
  /// The process-wide registry, holding the built-in patterns listed above.
  static TrafficPatternRegistry& instance();

 private:
  TrafficPatternRegistry() : NamedRegistry("traffic pattern") {}
};

/// Builds the named pattern; throws ConfigError with the known names (and a
/// did-you-mean suggestion) on an unknown `name`.  The config supplies
/// pattern-level options (hotspot_frac, ...); `rng` seeds construction-time
/// randomness (the permutation pattern's table).
std::unique_ptr<TrafficPattern> make_traffic_pattern(const std::string& name,
                                                     const Topology& mesh,
                                                     const Config& config, Rng& rng);

/// The hotspot pattern's target: the center node of the mesh.
Coord mesh_center(const Topology& mesh);

}  // namespace lgfi
