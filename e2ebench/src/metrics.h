// The benchmark's metric catalog and its result line.
//
// BENCHMARK.json lists the same names; the self-test compares the two,
// and the benchmark refuses to print a result whose metric set differs
// from the catalog.

#ifndef E2EBENCH_METRICS_H_
#define E2EBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported with --trace 0 (tracing off).
const std::vector<MetricDef>& EndToEndMetrics();
/// Reported with --trace 1 (the traced pass).
const std::vector<MetricDef>& PerLayerMetrics();

/// The result line: {"correct", "attempted", "failed", "metrics"}. Every
/// catalog metric must have a value in `values`, and nothing else may;
/// otherwise `*error` names the mismatch and the line is not built.
bool ResultJson(const std::vector<MetricDef>& catalog,
                const std::map<std::string, double>& values, bool correct,
                int64_t attempted, int64_t failed, std::string* json,
                std::string* error);

}  // namespace e2ebench

#endif  // E2EBENCH_METRICS_H_
