// Tests for the shared NamedRegistry template and the component
// introspection surface: metadata round-trips, duplicate and unknown names,
// did-you-mean suggestions, every registered factory across every registry
// constructs, and the --list catalog covers all five axes.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "src/core/component_catalog.h"
#include "src/core/experiment_runner.h"
#include "src/core/named_registry.h"
#include "src/routing/router_registry.h"
#include "src/sim/fault_schedule.h"
#include "src/sim/fault_timeline.h"
#include "src/sim/switching_model.h"
#include "src/sim/traffic_pattern.h"

namespace lgfi {
namespace {

TEST(NamedRegistry, AddContainsRequireAndMetaRoundTrip) {
  NamedRegistry<int> reg("widget");
  reg.add("alpha", 1, {"the first widget", {"alpha_knob"}});
  reg.add("beta", 2);
  EXPECT_TRUE(reg.contains("alpha"));
  EXPECT_FALSE(reg.contains("gamma"));
  EXPECT_EQ(reg.require("alpha"), 1);
  EXPECT_EQ(reg.require("beta"), 2);
  EXPECT_EQ(reg.meta("alpha").help, "the first widget");
  ASSERT_EQ(reg.meta("alpha").config_keys.size(), 1u);
  EXPECT_EQ(reg.meta("alpha").config_keys[0], "alpha_knob");
  EXPECT_EQ(reg.kind(), "widget");
}

TEST(NamedRegistry, NamesAndDescribeAreSortedRegardlessOfInsertionOrder) {
  NamedRegistry<int> reg("widget");
  reg.add("zeta", 1);
  reg.add("alpha", 2);
  reg.add("mu", 3);
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[2], "zeta");
  const auto rows = reg.describe();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "alpha");
  EXPECT_EQ(rows[1].name, "mu");
  EXPECT_EQ(rows[2].name, "zeta");
}

TEST(NamedRegistry, DuplicateNameRejectedNamingTheKind) {
  NamedRegistry<int> reg("widget");
  reg.add("alpha", 1);
  try {
    reg.add("alpha", 2);
    FAIL() << "duplicate registration must throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("widget 'alpha' registered twice"),
              std::string::npos)
        << e.what();
  }
}

TEST(NamedRegistry, UnknownNameListsRegisteredAndSuggests) {
  NamedRegistry<int> reg("widget");
  reg.add("uniform", 1);
  reg.add("transpose", 2);
  try {
    (void)reg.require("unifrom");
    FAIL() << "unknown name must throw";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown widget 'unifrom'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("registered: transpose, uniform"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'uniform'?"), std::string::npos) << msg;
  }
}

TEST(NamedRegistry, FarFetchedNameGetsNoSuggestion) {
  NamedRegistry<int> reg("widget");
  reg.add("uniform", 1);
  try {
    (void)reg.require("warp_drive");
    FAIL() << "unknown name must throw";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("registered: uniform"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("did you mean"), std::string::npos)
        << "'warp_drive' is not a plausible typo of 'uniform': " << msg;
  }
}

TEST(NamedRegistry, ClosestNamePicksEditDistanceWinnerDeterministically) {
  EXPECT_EQ(closest_name("unifrom", {"uniform", "transpose"}), "uniform");
  EXPECT_EQ(closest_name("fault_inof", {"fault_info", "no_info", "oracle"}), "fault_info");
  EXPECT_EQ(closest_name("xyzzy", {"uniform", "transpose"}), "");
  // Exact ties break lexicographically.
  EXPECT_EQ(closest_name("ac", {"ab", "aa"}), "aa");
}

// ---------------------------------------------------------------------------
// Satellite coverage: for every registry, every registered name constructs,
// and the unknown-name error lists the available names plus a suggestion.
// ---------------------------------------------------------------------------

void expect_unknown_error_quality(const std::function<void()>& call,
                                  const std::string& expected_listed,
                                  const std::string& expected_suggestion) {
  try {
    call();
    FAIL() << "unknown name must throw ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("registered:"), std::string::npos) << msg;
    EXPECT_NE(msg.find(expected_listed), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean '" + expected_suggestion + "'?"), std::string::npos)
        << msg;
  }
}

TEST(RegistryCoverage, EveryRegisteredRouterConstructs) {
  const Config cfg = experiment_config();
  for (const auto& name : RouterRegistry::instance().names()) {
    const auto router = make_router(name, cfg);
    EXPECT_NE(router, nullptr) << name;
  }
  expect_unknown_error_quality([] { (void)make_router("fault_inof"); }, "fault_info",
                               "fault_info");
}

TEST(RegistryCoverage, EveryRegisteredTrafficPatternConstructs) {
  const MeshTopology mesh(2, 6);
  const Config cfg = experiment_config();
  Rng rng(3);
  for (const auto& name : TrafficPatternRegistry::instance().names()) {
    const auto pattern = make_traffic_pattern(name, mesh, cfg, rng);
    ASSERT_NE(pattern, nullptr) << name;
    EXPECT_EQ(pattern->name(), name);
  }
  expect_unknown_error_quality(
      [&] {
        Rng r(1);
        (void)make_traffic_pattern("unifrom", MeshTopology(2, 4), Config{}, r);
      },
      "uniform", "uniform");
}

TEST(RegistryCoverage, EveryRegisteredSwitchingModelConstructs) {
  const MeshTopology mesh(2, 4);
  for (const auto& name : SwitchingModelRegistry::instance().names()) {
    const auto model = make_switching_model(name, mesh, SwitchingOptions{});
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
  }
  expect_unknown_error_quality(
      [&] { (void)make_switching_model("wormhol", mesh, SwitchingOptions{}); }, "ideal",
      "wormhole");
}

TEST(RegistryCoverage, EveryRegisteredFaultModelPlaces) {
  const MeshTopology mesh(2, 8);
  Config cfg = experiment_config();
  cfg.set_str("fault_box", "2:3,2:3");
  cfg.set_int("faults", 3);
  for (const auto& name : fault_model_registry().names()) {
    Rng rng(5);
    cfg.set_str("fault_model", name);
    if (is_lifecycle_model(name)) {
      // The lifecycle models generate a timeline, not a static placement;
      // their registry factories throw a steering ConfigError by design.
      EXPECT_THROW((void)place_faults(mesh, cfg, rng), ConfigError) << name;
      continue;
    }
    const auto placed = place_faults(mesh, cfg, rng);
    EXPECT_FALSE(placed.empty()) << name;
    for (const auto& c : placed) EXPECT_TRUE(mesh.in_bounds(c)) << name;
  }
  expect_unknown_error_quality(
      [&] {
        Rng rng(5);
        cfg.set_str("fault_model", "clusterd");
        (void)place_faults(mesh, cfg, rng);
      },
      "clustered", "clustered");
}

TEST(RegistryCoverage, EveryRegisteredReporterConstructs) {
  for (const auto& name : reporter_registry().names()) {
    const auto reporter = make_reporter(name);
    ASSERT_NE(reporter, nullptr) << name;
    EXPECT_EQ(reporter->name(), name);
  }
  expect_unknown_error_quality([] { (void)make_reporter("jsn"); }, "json", "json");
}

// ---------------------------------------------------------------------------
// The describe/--list catalog.
// ---------------------------------------------------------------------------

TEST(ComponentCatalog, CoversAllSevenAxes) {
  const auto sections = component_catalog();
  ASSERT_EQ(sections.size(), 7u);
  EXPECT_EQ(sections[0].config_key, "topology");
  EXPECT_EQ(sections[1].config_key, "router");
  EXPECT_EQ(sections[2].config_key, "traffic");
  EXPECT_EQ(sections[3].config_key, "injection");
  EXPECT_EQ(sections[4].config_key, "switching");
  EXPECT_EQ(sections[5].config_key, "fault_model");
  EXPECT_EQ(sections[6].config_key, "report");
  for (const auto& section : sections) {
    EXPECT_FALSE(section.components.empty()) << section.kind;
    for (const auto& c : section.components)
      EXPECT_FALSE(c.help.empty()) << section.kind << "/" << c.name
                                   << " needs a help line for the catalog";
  }
}

TEST(ComponentCatalog, DescribeTextNamesOneComponentPerRegistry) {
  const std::string text = describe_components();
  for (const char* expected : {"fault_info", "uniform", "wormhole", "clustered", "json",
                               "torus", "closed_loop", "injection processes (injection=",
                               "(topology=", "(router=", "(traffic="})
    EXPECT_NE(text.find(expected), std::string::npos) << "missing '" << expected << "'";
}

TEST(ComponentCatalog, CatalogConfigKeysExistInTheExperimentSchema) {
  // Every config key a component claims to consume must be a real key of
  // the experiment schema — the introspection surface cannot drift.
  const Config schema = experiment_config();
  for (const auto& section : component_catalog()) {
    EXPECT_TRUE(schema.defined(section.config_key)) << section.config_key;
    for (const auto& c : section.components)
      for (const auto& key : c.config_keys)
        EXPECT_TRUE(schema.defined(key)) << section.kind << "/" << c.name << " claims '"
                                         << key << "'";
  }
}

}  // namespace
}  // namespace lgfi
