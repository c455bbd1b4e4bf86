#include "src/core/topology_registry.h"

#include <limits>
#include <sstream>

namespace lgfi {

namespace {

/// `key` as an int: a wider value would narrow silently (radix=4294967298
/// would run a radix-2 mesh).
int config_int(const Config& config, const std::string& key) {
  const long long v = config.get_int(key);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    throw ConfigError(key + "=" + std::to_string(v) + " does not fit an int");
  return static_cast<int>(v);
}

int config_concentration(const Config& config) {
  const int c = config.defined("concentration") ? config_int(config, "concentration") : 1;
  if (c < 1) throw ConfigError("concentration must be >= 1");
  return c;
}

/// The grid extents from `extents` or mesh_dims/radix.  A grid whose node
/// ids or terminal slots would not fit 32 bits is refused naming its keys.
std::vector<int> config_extents(const Config& config, int concentration = 1) {
  const std::string spec = config.defined("extents") ? config.get_str("extents") : "";
  std::vector<int> extents;
  std::string keys;
  if (!spec.empty()) {
    extents = parse_extents_spec(spec, 0, 0);  // a spec overrides mesh_dims/radix
    keys = "extents=" + spec;
  } else {
    const int dims = config_int(config, "mesh_dims");
    const int radix = config_int(config, "radix");
    if (dims < 1 || dims > kMaxDims)
      throw ConfigError("mesh_dims=" + std::to_string(dims) + " is outside [1, " +
                        std::to_string(kMaxDims) + "]");
    if (radix < 1) throw ConfigError("radix=" + std::to_string(radix) + " must be >= 1");
    extents.assign(static_cast<size_t>(dims), radix);
    keys = "mesh_dims=" + std::to_string(dims) + " radix=" + std::to_string(radix);
  }
  if (!grid_fits(extents, concentration)) {
    if (concentration > 1) keys += " concentration=" + std::to_string(concentration);
    throw ConfigError(keys + " gives more than " + std::to_string(kMaxNodeCount) +
                      (concentration > 1 ? " terminals" : " nodes") +
                      " (node ids and terminal slots are 32-bit)");
  }
  return extents;
}

/// mesh and torus have exactly one terminal per router; a stray
/// concentration=4 on them would silently change load normalization, so it
/// is rejected instead of ignored.
void reject_concentration(const Config& config, const std::string& name) {
  if (config_concentration(config) != 1)
    throw ConfigError("concentration > 1 requires topology=cmesh (got topology=" + name + ")");
}

NamedRegistry<TopologyFactory> build_registry() {
  NamedRegistry<TopologyFactory> r("topology");
  r.add(
      "mesh",
      [](const Config& config) -> std::unique_ptr<Topology> {
        reject_concentration(config, "mesh");
        return std::make_unique<MeshTopology>(config_extents(config));
      },
      {"k-ary n-D mesh, the paper's substrate (no wraparound)",
       {"mesh_dims", "radix", "extents"}});
  r.add(
      "torus",
      [](const Config& config) -> std::unique_ptr<Topology> {
        reject_concentration(config, "torus");
        return std::make_unique<TorusTopology>(config_extents(config));
      },
      {"k-ary n-D torus: wraparound channels, no outer surface",
       {"mesh_dims", "radix", "extents"}});
  r.add(
      "cmesh",
      [](const Config& config) -> std::unique_ptr<Topology> {
        const int concentration = config_concentration(config);
        return std::make_unique<CMeshTopology>(config_extents(config, concentration),
                                               concentration);
      },
      {"concentrated mesh: `concentration` terminals share each router",
       {"mesh_dims", "radix", "extents", "concentration"}});
  return r;
}

}  // namespace

NamedRegistry<TopologyFactory>& topology_registry() {
  static NamedRegistry<TopologyFactory> registry = build_registry();
  return registry;
}

std::unique_ptr<Topology> make_topology(const Config& config) {
  const std::string name = config.defined("topology") ? config.get_str("topology") : "mesh";
  return topology_registry().require(name)(config);
}

std::vector<int> parse_extents_spec(const std::string& spec, int mesh_dims, int radix) {
  if (spec.empty()) return std::vector<int>(static_cast<size_t>(mesh_dims), radix);
  // Same hardening as parse_box_spec: every token must consume fully
  // (std::stoi("16x") happily returns 16) and a trailing comma is a typo,
  // not an empty dimension.
  if (spec.back() == ',')
    throw ConfigError("bad extents '" + spec + "' (trailing comma)");
  std::vector<int> extents;
  std::istringstream is(spec);
  std::string token;
  while (std::getline(is, token, ',')) {
    size_t used = 0;
    int v = 0;
    try {
      v = std::stoi(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != token.size() || v < 1)
      throw ConfigError("bad extents token '" + token + "' in '" + spec +
                        "' (want a comma list of positive integers, e.g. 16,4,4)");
    extents.push_back(v);
  }
  if (extents.empty() || extents.size() > static_cast<size_t>(kMaxDims))
    throw ConfigError("bad extents '" + spec + "' (want 1.." + std::to_string(kMaxDims) +
                      " dimensions)");
  return extents;
}

}  // namespace lgfi
