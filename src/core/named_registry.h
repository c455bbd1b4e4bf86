#pragma once
// The one registry type behind every pluggable axis.
//
// The seven axes are all NamedRegistry<Factory>: topology_registry(),
// fault_model_registry() and reporter_registry() directly; RouterRegistry,
// TrafficPatternRegistry, SwitchingModelRegistry and
// InjectionProcessRegistry as subclasses that add only a static instance()
// (and, for routers, each router's default InfoMode).  Each accessor
// registers its axis's built-ins in its function-local static initializer,
// on first use.  A NamedRegistry<Value> maps unique names to values (usually
// factories) and carries per-component introspection metadata — a one-line
// help text and the list of config keys the component consumes — so the
// catalog a CLI prints under --list and the error message an unknown name
// produces both come from the registrations themselves and cannot drift.
//
// Unknown names throw ConfigError with the sorted list of registered names
// plus a did-you-mean suggestion when an edit-distance-close candidate
// exists:
//
//   unknown router 'fault_inof' (registered: dimension_order, fault_info,
//   global_table, no_info, oracle); did you mean 'fault_info'?

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"

namespace lgfi {

/// Introspection metadata carried by every registered component.
struct ComponentMeta {
  std::string help;                      ///< one-line description
  std::vector<std::string> config_keys;  ///< config keys the component consumes
};

/// One catalog row: the component's name plus its metadata (the
/// value/factory is deliberately absent so rows are uniform across
/// registries of different factory types).
struct ComponentInfo {
  std::string name;
  std::string help;
  std::vector<std::string> config_keys;
};

/// The registered name closest to `name` by edit distance, or "" when
/// nothing is close enough to plausibly be a typo (distance above
/// max(2, len/3)).  Ties break to the lexicographically smallest name so
/// the suggestion is deterministic.
std::string closest_name(const std::string& name, const std::vector<std::string>& names);

/// "unknown <kind> '<name>' (registered: a, b, c); did you mean 'b'?" —
/// the suggestion clause is omitted when closest_name finds nothing.
std::string unknown_name_message(const std::string& kind, const std::string& name,
                                 const std::vector<std::string>& names);

template <typename Value>
class NamedRegistry {
 public:
  /// `kind` names the component family in error messages ("router",
  /// "traffic pattern", ...).
  explicit NamedRegistry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers `value` under `name`; duplicate names throw ConfigError.
  void add(const std::string& name, Value value, ComponentMeta meta = {}) {
    if (find(name) != nullptr) throw ConfigError(kind_ + " '" + name + "' registered twice");
    components_.push_back(Component{name, std::move(value), std::move(meta)});
  }

  [[nodiscard]] bool contains(const std::string& name) const { return find(name) != nullptr; }

  [[nodiscard]] std::vector<std::string> names() const {  ///< sorted
    std::vector<std::string> out;
    out.reserve(components_.size());
    for (const auto& c : components_) out.push_back(c.name);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The value registered under `name`; throws ConfigError listing the
  /// registered names (plus a did-you-mean suggestion) otherwise.
  [[nodiscard]] const Value& require(const std::string& name) const {
    if (const Component* c = find(name)) return c->value;
    throw ConfigError(unknown_name_message(kind_, name, names()));
  }

  /// The metadata registered under `name`; same error contract as require.
  [[nodiscard]] const ComponentMeta& meta(const std::string& name) const {
    if (const Component* c = find(name)) return c->meta;
    throw ConfigError(unknown_name_message(kind_, name, names()));
  }

  /// The full catalog, sorted by name — the describe/--list surface.
  [[nodiscard]] std::vector<ComponentInfo> describe() const {
    std::vector<ComponentInfo> out;
    out.reserve(components_.size());
    for (const auto& c : components_)
      out.push_back(ComponentInfo{c.name, c.meta.help, c.meta.config_keys});
    std::sort(out.begin(), out.end(),
              [](const ComponentInfo& a, const ComponentInfo& b) { return a.name < b.name; });
    return out;
  }

  [[nodiscard]] const std::string& kind() const { return kind_; }

 private:
  struct Component {
    std::string name;
    Value value;
    ComponentMeta meta;
  };

  [[nodiscard]] const Component* find(const std::string& name) const {
    for (const auto& c : components_)
      if (c.name == name) return &c;
    return nullptr;
  }

  std::string kind_;
  /// Insertion order; names()/describe() sort on the way out.
  std::vector<Component> components_;
};

}  // namespace lgfi
