#pragma once
// Routing-function registry: routers register by name and are built from a
// Config, so benches, examples and the simulators never construct a
// concrete router type directly (the booksim RegisterRoutingFunctions
// pattern).  The registry also owns the InfoMode vocabulary — where a
// router's block information comes from — and resolves it from config
// instead of hard-coded enums at call sites.
//
// Registered names:
//   dimension_order  e-cube baseline (no fault info consulted)
//   no_info          backtracking PCS, block information ignored
//   fault_info       Algorithm 3 over the limited-global placement (paper)
//   global_table     Algorithm 3 with per-node global tables (baseline)
//   oracle           BFS shortest path over live nodes (lower bound)

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/core/config.h"
#include "src/core/named_registry.h"
#include "src/routing/router.h"

namespace lgfi {

/// Where routing decisions get their block information from.
enum class InfoMode : uint8_t {
  kLimitedGlobal,  ///< the paper's model: the distributed InfoStore
  kNone,           ///< information-free PCS baseline
  kInstantGlobal,  ///< every node sees the true block list immediately
  kDelayedGlobal,  ///< global tables updated by a broadcast wave (baseline)
};

/// limited_global / none / instant_global / delayed_global; throws
/// ConfigError on anything else.
InfoMode parse_info_mode(const std::string& name);
const char* to_string(InfoMode mode);

using RouterFactory = std::function<std::unique_ptr<Router>(const Config&)>;

/// The router axis: a NamedRegistry of factories, plus the InfoMode each
/// router was registered with.
class RouterRegistry : public NamedRegistry<RouterFactory> {
 public:
  /// The process-wide registry, holding the built-in routers listed above.
  static RouterRegistry& instance();

  /// Registers a factory under `name`; `default_mode` is the information
  /// placement the router is designed for.  `meta` carries the one-line
  /// help text and consumed config keys for the --list catalog.  Duplicate
  /// names throw.
  void add(const std::string& name, InfoMode default_mode, RouterFactory factory,
           ComponentMeta meta = {});

  /// The mode `name` was registered with; throws ConfigError with the known
  /// names (and a did-you-mean suggestion) on an unknown `name`.
  [[nodiscard]] InfoMode default_info_mode(const std::string& name) const;

 private:
  RouterRegistry() : NamedRegistry("router") {}

  std::map<std::string, InfoMode> default_modes_;
};

/// Builds the named router with router defaults / with options from
/// `config` (oracle_avoid, ecube_strict); throws ConfigError with the known
/// names (and a did-you-mean suggestion) on an unknown `name`.
std::unique_ptr<Router> make_router(const std::string& name);
std::unique_ptr<Router> make_router(const std::string& name, const Config& config);

/// The router name DynamicSimulation historically paired with each mode.
const char* router_name_for(InfoMode mode);

/// Resolves the run's InfoMode from config: `info_mode` when set to a
/// concrete mode, else ("auto") the registered default of `router`.
InfoMode resolve_info_mode(const Config& config);

}  // namespace lgfi
