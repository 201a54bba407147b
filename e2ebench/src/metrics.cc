#include "metrics.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

namespace e2ebench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},         {"wall_s", "s"},
      {"wall_par_s", "s"},      {"peak_rss_mb", "MB"},
      {"est_error", "error"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"scenario.parse_ms", "ms"},
      {"scenario.validate_ms", "ms"},
      {"scenario.sink_ms", "ms"},
      {"scenario.output_bytes", "bytes"},
      {"executor.units", "count"},
      {"executor.threads", "count"},
      {"executor.speedup", "x"},
      {"env.build_ms", "ms"},
      {"env.plan_ns_per_slot", "ns"},
      {"agg.swarm_build_ms", "ms"},
      {"agg.round_ns_per_host_round", "ns"},
      {"agg.apply_ns_per_host_round", "ns"},
      {"agg.state_bytes_per_host", "bytes"},
      {"agg.bytes_per_host_round", "bytes"},
      {"agg.bw_fraction", "fraction"},
      {"sim.record_ns_per_host_round", "ns"},
      {"sim.record_share", "fraction"},
      {"sim.membership_ms_per_round", "ms"},
      {"sim.joins", "count"},
      {"sim.leaves", "count"},
      {"sim.host_rounds", "count"},
      {"stream.round_ns_per_host_round", "ns"},
      {"stream.record_ms", "ms"},
      {"stream.sketch_bytes_per_host", "bytes"},
      {"net.tick_ns_per_msg", "ns"},
      {"net.decide_ns_per_msg", "ns"},
      {"net.queue_ns_per_msg", "ns"},
      {"net.deliver_ns_per_msg", "ns"},
      {"net.delivery_ratio", "fraction"},
      {"net.inflight_peak", "count"},
      {"net.messages_sent", "count"},
      {"round.p50_ms", "ms"},
      {"round.p90_ms", "ms"},
      {"round.tail_pct", "%"},
      {"round.samples", "count"},
      {"round.drift_ratio", "x"},
      {"round.drift_flag", "count"},
      {"split.setup_pct", "%"},
      {"split.membership_pct", "%"},
      {"split.plan_pct", "%"},
      {"split.apply_pct", "%"},
      {"split.record_pct", "%"},
      {"split.net_pct", "%"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.layer_coverage_pct", "%"},
      {"check.traced_units_matched", "count"},
      {"host.nproc", "count"},
      {"host.affinity_cpus", "count"},
      {"host.effective_cores", "x"},
      {"host.mem_bw_gbs", "GB/s"},
      {"host.llc_bytes", "bytes"},
      {"host.triad_bytes", "bytes"},
  };
  return defs;
}

bool ResultJson(const std::vector<MetricDef>& catalog,
                const std::map<std::string, double>& values, bool correct,
                int64_t attempted, int64_t failed, std::string* json,
                std::string* error) {
  for (const MetricDef& d : catalog) {
    if (values.count(d.name) == 0) {
      *error = std::string("metric '") + d.name + "' was not measured";
      return false;
    }
  }
  if (values.size() != catalog.size()) {
    for (const auto& [name, value] : values) {
      bool known = false;
      for (const MetricDef& d : catalog) known = known || name == d.name;
      if (!known) {
        *error = "metric '" + name + "' is not in the catalog";
        return false;
      }
    }
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < catalog.size(); ++i) {
    const double v = values.at(catalog[i].name);
    if (!std::isfinite(v)) {
      *error = std::string("metric '") + catalog[i].name + "' is not finite";
      return false;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += std::string(i ? ", " : "") + "\"" + catalog[i].name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + catalog[i].unit +
           "\"}";
  }
  out += "}}";
  *json = std::move(out);
  return true;
}

}  // namespace e2ebench
