#include "src/routing/router_registry.h"

#include "src/routing/dimension_order_router.h"
#include "src/routing/fault_info_router.h"
#include "src/routing/global_table_router.h"
#include "src/routing/no_info_router.h"
#include "src/routing/oracle_router.h"

namespace lgfi {

InfoMode parse_info_mode(const std::string& name) {
  if (name == "limited_global") return InfoMode::kLimitedGlobal;
  if (name == "none") return InfoMode::kNone;
  if (name == "instant_global") return InfoMode::kInstantGlobal;
  if (name == "delayed_global") return InfoMode::kDelayedGlobal;
  throw ConfigError("unknown info mode '" + name +
                    "' (want limited_global, none, instant_global, delayed_global, or auto)");
}

const char* to_string(InfoMode mode) {
  switch (mode) {
    case InfoMode::kLimitedGlobal: return "limited_global";
    case InfoMode::kNone: return "none";
    case InfoMode::kInstantGlobal: return "instant_global";
    case InfoMode::kDelayedGlobal: return "delayed_global";
  }
  return "?";
}

RouterRegistry& RouterRegistry::instance() {
  static RouterRegistry registry = [] {
    RouterRegistry r;
    r.add(
        "dimension_order", InfoMode::kNone,
        [](const Config& cfg) -> std::unique_ptr<Router> {
          const bool strict =
              cfg.defined("ecube_strict") ? cfg.get_bool("ecube_strict") : true;
          return std::make_unique<DimensionOrderRouter>(strict);
        },
        {"e-cube baseline; consults no fault information", {"ecube_strict"}});
    r.add(
        "no_info", InfoMode::kNone,
        [](const Config&) -> std::unique_ptr<Router> {
          return std::make_unique<FaultInfoRouter>(make_no_info_router().options());
        },
        {"backtracking PCS; block information ignored", {}});
    r.add(
        "fault_info", InfoMode::kLimitedGlobal,
        [](const Config&) -> std::unique_ptr<Router> {
          return std::make_unique<FaultInfoRouter>();
        },
        {"Algorithm 3 over the limited-global placement (the paper)", {}});
    r.add(
        "global_table", InfoMode::kInstantGlobal,
        [](const Config&) -> std::unique_ptr<Router> {
          return std::make_unique<FaultInfoRouter>(make_global_table_router().options());
        },
        {"Algorithm 3 with per-node global tables (baseline)", {}});
    r.add(
        "oracle", InfoMode::kNone,
        [](const Config& cfg) -> std::unique_ptr<Router> {
          OracleAvoid avoid = OracleAvoid::kBlockMembers;
          if (cfg.defined("oracle_avoid")) {
            const std::string& a = cfg.get_str("oracle_avoid");
            if (a == "faulty_only") avoid = OracleAvoid::kFaultyOnly;
            else if (a == "block_members") avoid = OracleAvoid::kBlockMembers;
            else
              throw ConfigError("unknown oracle_avoid '" + a +
                                "' (want faulty_only or block_members)");
          }
          return std::make_unique<OracleRouter>(avoid);
        },
        {"BFS shortest path over live nodes (lower bound)", {"oracle_avoid"}});
    return r;
  }();
  return registry;
}

void RouterRegistry::add(const std::string& name, InfoMode default_mode, RouterFactory factory,
                         ComponentMeta meta) {
  NamedRegistry::add(name, std::move(factory), std::move(meta));
  default_modes_[name] = default_mode;
}

InfoMode RouterRegistry::default_info_mode(const std::string& name) const {
  (void)require(name);  // the unknown-router error
  return default_modes_.at(name);
}

std::unique_ptr<Router> make_router(const std::string& name) {
  return make_router(name, Config{});
}

std::unique_ptr<Router> make_router(const std::string& name, const Config& config) {
  return RouterRegistry::instance().require(name)(config);
}

const char* router_name_for(InfoMode mode) {
  switch (mode) {
    case InfoMode::kLimitedGlobal: return "fault_info";
    case InfoMode::kNone: return "no_info";
    case InfoMode::kInstantGlobal:
    case InfoMode::kDelayedGlobal: return "global_table";
  }
  return "fault_info";
}

InfoMode resolve_info_mode(const Config& config) {
  if (config.defined("info_mode")) {
    const std::string& mode = config.get_str("info_mode");
    if (mode != "auto") return parse_info_mode(mode);
  }
  const std::string router =
      config.defined("router") ? config.get_str("router") : "fault_info";
  return RouterRegistry::instance().default_info_mode(router);
}

}  // namespace lgfi
