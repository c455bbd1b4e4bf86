// Tests for the Campaign API: the sweep grammar (lists, ranges), Cartesian
// grid expansion order, the CampaignRunner determinism contract
// (byte-identical output for any thread count, streamed in grid order), and
// the 1-point campaign's byte-compatibility with the historical single-run
// reporters.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/campaign.h"
#include "src/core/experiment_runner.h"

namespace lgfi {
namespace {

SweepSpec small_spec(const std::string& line = "") {
  SweepSpec spec(experiment_config());
  if (!line.empty()) spec.parse_string(line);
  return spec;
}

TEST(SweepSpec, ScalarTokensStillSetTheBase) {
  const SweepSpec spec = small_spec("mesh_dims=3 radix=9");
  EXPECT_TRUE(spec.axes().empty());
  EXPECT_EQ(spec.base().get_int("mesh_dims"), 3);
  EXPECT_EQ(spec.base().get_int("radix"), 9);
  EXPECT_EQ(spec.point_count(), 1u);
}

TEST(SweepSpec, GridExpandsInDeclarationOrderLastAxisFastest) {
  const SweepSpec spec =
      small_spec("router=[no_info,fault_info] injection_rate=[0.02,0.05,0.1]");
  ASSERT_EQ(spec.axes().size(), 2u);
  EXPECT_EQ(spec.axes()[0].key, "router");
  EXPECT_EQ(spec.axes()[1].key, "injection_rate");
  EXPECT_EQ(spec.point_count(), 6u);

  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 6u);
  const std::vector<std::pair<std::string, std::string>> want = {
      {"no_info", "0.02"},    {"no_info", "0.05"},    {"no_info", "0.1"},
      {"fault_info", "0.02"}, {"fault_info", "0.05"}, {"fault_info", "0.1"}};
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    ASSERT_EQ(points[i].swept.size(), 2u);
    EXPECT_EQ(points[i].swept[0], (std::pair<std::string, std::string>{"router", want[i].first}));
    EXPECT_EQ(points[i].swept[1],
              (std::pair<std::string, std::string>{"injection_rate", want[i].second}));
    EXPECT_EQ(points[i].config.get_str("router"), want[i].first);
    EXPECT_DOUBLE_EQ(points[i].config.get_double("injection_rate"),
                     std::stod(want[i].second));
  }
}

TEST(SweepSpec, RangeIncludesBothEndpointsWhenTheyLand) {
  const SweepSpec spec = small_spec("injection_rate=range(0.02,0.1,0.04)");
  ASSERT_EQ(spec.axes().size(), 1u);
  EXPECT_EQ(spec.axes()[0].values, (std::vector<std::string>{"0.02", "0.06", "0.1"}));
}

TEST(SweepSpec, RangeStopsBeforeAnOffGridHi) {
  const SweepSpec spec = small_spec("injection_rate=range(0.01,0.1,0.04)");
  EXPECT_EQ(spec.axes()[0].values, (std::vector<std::string>{"0.01", "0.05", "0.09"}));
}

TEST(SweepSpec, IntRangeUsesIntegerArithmetic) {
  const SweepSpec spec = small_spec("faults=range(0,24,8)");
  EXPECT_EQ(spec.axes()[0].values, (std::vector<std::string>{"0", "8", "16", "24"}));
  // A one-point range is a valid (degenerate) axis.
  const SweepSpec one = small_spec("radix=range(6,6,1)");
  EXPECT_EQ(one.axes()[0].values, (std::vector<std::string>{"6"}));
}

TEST(SweepSpec, MalformedTokensThrowNamingTheToken) {
  const auto expect_throw_naming = [](const std::string& line, const std::string& fragment) {
    try {
      small_spec(line);
      FAIL() << line << " must throw";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << line << " error should name '" << fragment << "': " << e.what();
    }
  };
  expect_throw_naming("injection_rate=[]", "injection_rate=[]");
  expect_throw_naming("injection_rate=[0.1,]", "injection_rate=[0.1,]");
  expect_throw_naming("injection_rate=[0.1,,0.2]", "injection_rate=[0.1,,0.2]");
  expect_throw_naming("radix=[8,8]", "radix=[8,8]");
  expect_throw_naming("radix=[8,x]", "radix=[8,x]");
  expect_throw_naming("radix=[8,9", "radix=[8,9");
  expect_throw_naming("injection_rate=range(0.1,0.02,0.04)", "lo <= hi");
  expect_throw_naming("injection_rate=range(0.02,0.1,0)", "step");
  expect_throw_naming("injection_rate=range(0.02,0.1)", "range(lo,hi,step)");
  expect_throw_naming("injection_rate=range(a,b,c)", "bad number");
  expect_throw_naming("faults=range(0,10,2.5)", "must be integers");
  expect_throw_naming("router=range(1,3,1)", "numeric");
  // Campaign-level keys cannot be swept.
  expect_throw_naming("threads=[1,2]", "threads");
  expect_throw_naming("report=[csv,json]", "report");
  // Unknown keys fail through the Config error, naming the sweep token.
  expect_throw_naming("bogus=[1,2]", "bogus");
}

TEST(SweepSpec, DuplicateAxisAndScalarConflictsThrow) {
  EXPECT_THROW(small_spec("radix=[6,8] radix=[10,12]"), ConfigError);
  EXPECT_THROW(small_spec("radix=[6,8] radix=10"), ConfigError);
}

TEST(SweepSpec, RatesIsNotAKey) {
  // The injection-rate axis has one spelling: injection_rate=[a,b,c].
  EXPECT_THROW(small_spec("rates=0.01,0.02"), ConfigError);
}

TEST(SweepSpec, DefaultAxesYieldToUserTokensButKeepTheirPosition) {
  SweepSpec spec(experiment_config());
  spec.add_default_axis("router", {"fault_info", "no_info"});
  spec.add_default_axis("injection_rate", {"0.02", "0.05"});
  // The user re-sweeps the first axis: values replaced, position kept.
  spec.parse_token("router=[oracle]");
  ASSERT_EQ(spec.axes().size(), 2u);
  EXPECT_EQ(spec.axes()[0].key, "router");
  EXPECT_EQ(spec.axes()[0].values, (std::vector<std::string>{"oracle"}));
  EXPECT_EQ(spec.axes()[1].key, "injection_rate");
  // A default added after a user sweep of the same key is a no-op.
  spec.add_default_axis("router", {"dimension_order"});
  EXPECT_EQ(spec.axes()[0].values, (std::vector<std::string>{"oracle"}));
  // A scalar collapses a default axis back to a point.
  spec.parse_token("injection_rate=0.3");
  ASSERT_EQ(spec.axes().size(), 1u);
  EXPECT_DOUBLE_EQ(spec.base().get_double("injection_rate"), 0.3);
}

TEST(CampaignRunner, ValidatesEveryGridPointEagerly) {
  try {
    const CampaignRunner runner(small_spec("router=[no_info,fault_inof]"));
    FAIL() << "a bad name anywhere in the grid must fail before any task runs";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'fault_info'?"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignRunner, RunsTheGridAndMergesPerPoint) {
  const SweepSpec spec = small_spec(
      "router=[no_info,fault_info] faults=[2,4] mesh_dims=2 radix=8 "
      "replications=3 routes=2 seed=11");
  const CampaignRunner runner(spec);
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].result.replications, 3);
    EXPECT_EQ(results[i].result.metrics.stats("delivered").count(), 6)
        << "routes * replications";
  }
  // Grid order: router outer, faults inner.
  EXPECT_EQ(results[0].result.config.get_str("router"), "no_info");
  EXPECT_EQ(results[0].result.config.get_int("faults"), 2);
  EXPECT_EQ(results[1].result.config.get_int("faults"), 4);
  EXPECT_EQ(results[2].result.config.get_str("router"), "fault_info");
}

TEST(CampaignRunner, PointResultsMatchStandaloneExperimentRunner) {
  // A campaign point must reproduce exactly what a standalone run of its
  // config produces — the grid changes scheduling, never results.
  const SweepSpec spec =
      small_spec("faults=[2,5] mesh_dims=2 radix=8 replications=4 routes=3 seed=9");
  const auto results = CampaignRunner(spec).run();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& point : results) {
    const ExperimentResult standalone = ExperimentRunner(point.result.config).run();
    std::ostringstream a, b;
    JsonReporter().report(standalone, a);
    JsonReporter().report(point.result, b);
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(CampaignRunner, OnePointCampaignByteIdenticalToSingleRunReport) {
  for (const char* report : {"table", "csv", "json"}) {
    Config cfg = experiment_config();
    cfg.parse_string("mesh_dims=2 radix=8 faults=3 replications=2 routes=3 seed=5");
    cfg.set_str("report", report);

    std::ostringstream single;
    ExperimentRunner(cfg).run_and_report(single);

    SweepSpec spec(cfg);
    std::ostringstream campaign;
    CampaignRunner(spec).run_and_report(campaign);
    EXPECT_EQ(single.str(), campaign.str()) << report;
    // And the historical shape is preserved (no campaign wrapping).
    if (std::string(report) == "csv") {
      EXPECT_EQ(campaign.str().find("config,metric,count,mean,stddev,min,max"), 0u);
    }
    if (std::string(report) == "json") {
      EXPECT_EQ(campaign.str().find("{\"config\":{"), 0u);
    }
    if (std::string(report) == "table") {
      EXPECT_EQ(campaign.str().find("config: "), 0u);
    }
  }
}

TEST(CampaignRunner, CampaignOutputByteIdenticalAcrossThreadCounts) {
  const auto render = [](const char* report, int threads) {
    SweepSpec spec = small_spec(
        "router=[no_info,fault_info] injection_rate=[0.02,0.05,0.1] traffic=uniform "
        "mesh_dims=2 radix=6 warmup_steps=10 measure_steps=60 routes=0 faults=0 "
        "replications=2 seed=3");
    spec.base().set_str("report", report);
    spec.base().set_int("threads", threads);
    std::ostringstream os;
    CampaignRunner(spec).run_and_report(os);
    return os.str();
  };
  // JSON: swept values + metrics only, so even the full bytes are
  // schedule-independent (threads never appears in campaign output).
  const std::string json1 = render("json", 1);
  EXPECT_EQ(json1, render("json", 8));
  EXPECT_EQ(json1.front(), '[');
  EXPECT_EQ(json1.substr(json1.size() - 2), "]\n");

  // CSV: drop the "# config:" comment (threads legitimately differs there);
  // header and all 6 rows must match byte for byte.
  const auto rows = [](const std::string& csv) { return csv.substr(csv.find('\n') + 1); };
  const std::string csv1 = render("csv", 1);
  EXPECT_EQ(rows(csv1), rows(render("csv", 8)));
  EXPECT_EQ(csv1.find("# config: "), 0u);
}

TEST(CampaignRunner, CampaignCsvHasOneHeaderAndOneRowPerPoint) {
  SweepSpec spec = small_spec(
      "router=[no_info,fault_info] faults=[0,3,6] mesh_dims=2 radix=8 "
      "replications=2 routes=2 seed=7 report=csv");
  std::ostringstream os;
  CampaignRunner(spec).run_and_report(os);
  std::istringstream lines(os.str());
  std::string line;
  int headers = 0, rows = 0, comments = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# config: ", 0) == 0) ++comments;
    else if (line.rfind("router,faults,", 0) == 0) ++headers;
    else if (!line.empty()) ++rows;
  }
  EXPECT_EQ(comments, 1);
  EXPECT_EQ(headers, 1);
  EXPECT_EQ(rows, 6) << os.str();
  // Leading columns are the swept values in grid order.
  EXPECT_NE(os.str().find("\nno_info,0,"), std::string::npos);
  EXPECT_NE(os.str().find("\nfault_info,6,"), std::string::npos);
}

TEST(CampaignRunner, SinkReceivesPointsInGridOrderWhileParallel) {
  // A recording sink observes the streaming contract directly: add() runs
  // once per point, in grid order, between one begin() and one end() —
  // whatever the thread count.
  class RecordingSink final : public Reporter {
   public:
    void begin(const Campaign& campaign, std::ostream&) override {
      begun = true;
      expected_points = campaign.points.size();
    }
    void add(const PointResult& point) override { indices.push_back(point.index); }
    void end() override { ended = true; }
    [[nodiscard]] std::string name() const override { return "recording"; }

    bool begun = false, ended = false;
    size_t expected_points = 0;
    std::vector<size_t> indices;
  };

  SweepSpec spec = small_spec(
      "faults=[1,2,3,4,5,6] mesh_dims=2 radix=8 replications=3 routes=1 threads=8");
  RecordingSink sink;
  std::ostringstream os;
  const auto results = CampaignRunner(spec).run(sink, os);
  EXPECT_TRUE(sink.begun);
  EXPECT_TRUE(sink.ended);
  EXPECT_EQ(sink.expected_points, 6u);
  ASSERT_EQ(sink.indices.size(), 6u);
  for (size_t i = 0; i < sink.indices.size(); ++i) EXPECT_EQ(sink.indices[i], i);
  EXPECT_EQ(results.size(), 6u);
}

TEST(CampaignRunner, ExplicitGridZipsKeysAndRunsCustomBodies) {
  // The high_dimensional_sweep shape: co-varying keys, a bespoke
  // per-replication body, swept labels rendered from each point config.
  Config base = experiment_config();
  base.set_int("replications", 2);
  std::vector<Config> points;
  for (const int radix : {6, 8}) {
    Config cfg = base;
    cfg.set_int("radix", radix);
    cfg.set_int("mesh_dims", radix == 6 ? 3 : 2);
    points.push_back(std::move(cfg));
  }
  const CampaignRunner runner(base, {"mesh_dims", "radix"}, std::move(points));
  ASSERT_EQ(runner.campaign().points.size(), 2u);
  EXPECT_EQ(runner.campaign().points[0].swept,
            (std::vector<std::pair<std::string, std::string>>{{"mesh_dims", "3"},
                                                              {"radix", "6"}}));
  const auto results = runner.run_with([](const ExperimentRunner& r, Rng&, MetricSet& out) {
    out.add("nodes_per_dim", static_cast<double>(r.config().get_int("radix")));
  });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].result.metrics.mean("nodes_per_dim"), 6.0);
  EXPECT_DOUBLE_EQ(results[1].result.metrics.mean("nodes_per_dim"), 8.0);
  EXPECT_EQ(results[0].result.metrics.stats("nodes_per_dim").count(), 2);
}

TEST(CampaignRunner, ReplicationErrorsSurfaceAfterTheFanOutDrains) {
  // A throwing body must reach the caller as the exception, not terminate a
  // pool worker, and not reach the sink's end().
  SweepSpec spec = small_spec("faults=[1,2] replications=4 threads=4 mesh_dims=2 radix=8");
  const CampaignRunner runner(spec);
  std::atomic<int> calls{0};
  EXPECT_THROW(runner.run_with([&](const ExperimentRunner&, Rng&, MetricSet&) {
                 ++calls;
                 throw ConfigError("boom");
               }),
               ConfigError);
  EXPECT_EQ(calls.load(), 8) << "the fan-out drains before rethrowing";
}

TEST(CampaignRunner, GridCapRejectsRunawayProducts) {
  // A single over-cap range fails at parse time...
  EXPECT_THROW(small_spec("faults=range(0,99999,1)"), ConfigError);
  // ...and a grid whose *product* exceeds the cap fails at expansion.
  SweepSpec spec = small_spec("faults=range(0,199,1) seed=range(0,99,1)");
  EXPECT_THROW((void)spec.point_count(), ConfigError);
}

TEST(SweepSpec, ScalarPinSuppressesDefaultsAddedAfterParsing) {
  // The benches install their default axes *after* the CLI tokens; a scalar
  // the user passed must stay a point, not be resurrected into the sweep.
  SweepSpec spec(experiment_config());
  spec.parse_token("injection_rate=0.07");
  spec.add_default_axis("injection_rate", {"0.02", "0.05"});
  EXPECT_FALSE(spec.has_axis("injection_rate"));
  EXPECT_DOUBLE_EQ(spec.base().get_double("injection_rate"), 0.07);
  // Unpinned keys still get their default axis.
  spec.add_default_axis("router", {"fault_info", "no_info"});
  EXPECT_TRUE(spec.has_axis("router"));
}

TEST(CampaignRunner, CsvAndTableColumnsAreTheUnionOverHeterogeneousPoints) {
  // A switching sweep emits flit-level metrics only at the wormhole points;
  // the csv/table column set must be the union, not whatever the first
  // (ideal) point happened to record.
  SweepSpec spec = small_spec(
      "switching=[ideal,wormhole] traffic=uniform mesh_dims=2 radix=6 warmup_steps=10 "
      "measure_steps=60 routes=0 faults=0 replications=1 seed=2 report=csv");
  std::ostringstream csv;
  CampaignRunner(spec).run_and_report(csv);
  std::istringstream lines(csv.str());
  std::string comment, header, ideal_row, wormhole_row;
  std::getline(lines, comment);
  std::getline(lines, header);
  std::getline(lines, ideal_row);
  std::getline(lines, wormhole_row);
  EXPECT_NE(header.find("head_latency"), std::string::npos) << header;
  EXPECT_NE(header.find("sw_flit_moves"), std::string::npos) << header;
  // The ideal row has empty cells for the wormhole-only columns.
  EXPECT_EQ(ideal_row.rfind("ideal,", 0), 0u);
  EXPECT_NE(ideal_row.find(",,"), std::string::npos) << ideal_row;
  EXPECT_EQ(wormhole_row.rfind("wormhole,", 0), 0u);
  EXPECT_EQ(wormhole_row.find(",,"), std::string::npos) << wormhole_row;
}

}  // namespace
}  // namespace lgfi
