// Harness self-tests: the metric catalog matches BENCHMARK.json, the seed
// changes the generated inputs, every generated spec validates, and span
// self time is duration minus child coverage.

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "metrics.h"
#include "scenario/executor.h"
#include "scenario/spec.h"
#include "spans.h"
#include "workloads.h"

namespace e2ebench {
namespace {

/// (name, unit) pairs of one metric array of BENCHMARK.json.
std::vector<std::pair<std::string, std::string>> JsonMetrics(
    const std::string& key) {
  std::ifstream in(std::string(E2EBENCH_ROOT) + "/BENCHMARK.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const size_t at = text.find("\"" + key + "\"");
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return {};
  const size_t open = text.find('[', at);
  const size_t close = text.find(']', open);
  const std::string array = text.substr(open, close - open);
  std::vector<std::pair<std::string, std::string>> out;
  const std::regex entry(
      R"re(\{[^}]*"name"\s*:\s*"([^"]+)"[^}]*"unit"\s*:\s*"([^"]+)"[^}]*\})re");
  for (std::sregex_iterator it(array.begin(), array.end(), entry), end;
       it != end; ++it) {
    out.push_back({(*it)[1], (*it)[2]});
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> Catalog(
    const std::vector<MetricDef>& defs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricDef& d : defs) out.push_back({d.name, d.unit});
  return out;
}

TEST(MetricCatalog, MatchesBenchmarkJson) {
  EXPECT_EQ(Catalog(EndToEndMetrics()), JsonMetrics("end_to_end"));
  EXPECT_EQ(Catalog(PerLayerMetrics()), JsonMetrics("per_layer"));
}

TEST(MetricCatalog, ResultLineRefusesMissingOrExtraMetrics) {
  std::map<std::string, double> values;
  for (const MetricDef& d : EndToEndMetrics()) values[d.name] = 1.5;
  std::string json, error;
  ASSERT_TRUE(
      ResultJson(EndToEndMetrics(), values, true, 3, 0, &json, &error));
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {\"setup_s\": {\"value\": 1.5, ",
                       0),
            0u)
      << json;
  values["bogus"] = 1.0;
  EXPECT_FALSE(
      ResultJson(EndToEndMetrics(), values, true, 3, 0, &json, &error));
  values.erase("bogus");
  values.erase("wall_s");
  EXPECT_FALSE(
      ResultJson(EndToEndMetrics(), values, true, 3, 0, &json, &error));
}

TEST(Workloads, SeedChangesInputsAndRepeats) {
  for (const std::string& name : WorkloadNames()) {
    const auto a = MakeWorkload(name, 1);
    const auto b = MakeWorkload(name, 2);
    const auto again = MakeWorkload(name, 1);
    ASSERT_TRUE(a.ok() && b.ok() && again.ok()) << name;
    EXPECT_NE(a.value().spec_text, b.value().spec_text) << name;
    EXPECT_EQ(a.value().spec_text, again.value().spec_text) << name;
  }
  EXPECT_FALSE(MakeWorkload("no_such_workload", 1).ok());
}

TEST(Workloads, EverySpecValidates) {
  for (const std::string& name : WorkloadNames()) {
    const auto w = MakeWorkload(name, 7);
    ASSERT_TRUE(w.ok()) << name;
    const auto specs =
        dynagg::scenario::ParseScenarioFile(w.value().spec_text, name);
    ASSERT_TRUE(specs.ok()) << specs.status().ToString();
    EXPECT_TRUE(CheckSpecStability(w.value(), specs.value()).ok()) << name;
    for (const auto& spec : specs.value()) {
      const dynagg::Status st = dynagg::scenario::ValidateExperiment(spec);
      EXPECT_TRUE(st.ok()) << spec.name << ": " << st.ToString();
    }
  }
}

TEST(Workloads, StabilityCheckRefusesRoadmapKeys) {
  Workload w;
  w.name = "probe";
  w.spec_text = "protocol = push-sum\nintra_round_threads = 2\n";
  EXPECT_FALSE(CheckSpecStability(w, {}).ok());
  dynagg::scenario::ScenarioSpec both;
  both.params["failure.kind"] = "kill_random_fraction";
  both.params["churn.death_prob"] = "0.1";
  w.spec_text = "protocol = push-sum\n";
  EXPECT_FALSE(CheckSpecStability(w, {both}).ok());
}

TEST(Spans, SelfTimeIsDurationMinusChildCoverage) {
  std::vector<Span> spans(5);
  spans[0] = {"bench.unit", 0, 100, -1};
  spans[1] = {"env.plan", 10, 30, 0};
  spans[2] = {"agg.round", 20, 50, 0};  // overlaps the first child
  spans[3] = {"sim.record", 90, 120, 0};  // runs past the parent
  spans[4] = {"sim.on_join", 12, 18, 1};  // a grandchild
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // [10, 50) and [90, 100) covered
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[4], 6);
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("env.plan").total_ns, 20);
  EXPECT_EQ(totals.at("bench.unit").count, 1);
}

TEST(Spans, RecorderNestsAndSumsToWall) {
  SpanRecorder rec;
  {
    Scoped unit(rec, "bench.unit");
    { Scoped a(rec, "env.plan"); }
    {
      Scoped b(rec, "agg.round");
      { Scoped c(rec, "sim.on_join"); }
    }
  }
  const std::vector<Span>& spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  const std::vector<int64_t> self = SelfTimes(spans);
  int64_t sum = 0;
  for (const int64_t s : self) sum += s;
  EXPECT_EQ(sum, spans[0].end_ns - spans[0].start_ns);
}

}  // namespace
}  // namespace e2ebench
