// wimesh benchmark entry point: runs one named workload and prints, as the last
// line of standard output, one JSON object with the fields correct,
// attempted, failed and metrics.
//
//   wimesh_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics from untraced rounds; --trace 1
// prints the per-layer breakdown, taken from traced rounds plus timings of
// the public calls into each layer. The exit code is 0 only when every
// output check passed.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "checks.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

void log_rounds(const std::string& workload, const std::vector<double>& walls) {
  std::fprintf(stderr, "%s: %zu rounds, round wall min %.4f median %.4f max %.4f s\n",
               workload.c_str(), walls.size(), quantile(walls, 0.0),
               quantile(walls, 0.5), quantile(walls, 1.0));
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"core.plan_ms", "ms"},
      {"core.run_s", "s"},
      {"core.wall_s_per_sim_s", "s/s"},
      {"core.rounds", "count"},
      {"des.events", "count"},
      {"des.ns_per_event", "ns"},
      {"tdma.frame_starts", "count"},
      {"tdma.blocks", "count"},
      {"tdma.blocks_skipped", "count"},
      {"tdma.grant_swaps", "count"},
      {"tdma.deadline_requeues", "count"},
      {"wifi.tx", "count"},
      {"wifi.mac_drops", "count"},
      {"wifi.rx_corrupted", "count"},
      {"wifi.ns_per_tx", "ns"},
      {"radio.deep_fades", "count"},
      {"radio.captures", "count"},
      {"radio.rate_switches", "count"},
      {"radio.ns_per_tx", "ns"},
      {"sync.waves", "count"},
      {"sync.reroots", "count"},
      {"traffic.sent", "count"},
      {"traffic.delivered", "count"},
      {"traffic.late", "count"},
      {"traffic.lost", "count"},
      {"traffic.voip_p50_ms", "ms"},
      {"traffic.voip_p99_ms", "ms"},
      {"faults.repairs", "count"},
      {"faults.recovery_ms", "ms"},
      {"faults.replan_ms", "ms"},
      {"zones.count", "count"},
      {"zones.border_links", "count"},
      {"zones.solve_ms", "ms"},
      {"zones.compose_ms", "ms"},
      {"qos.build_problem_ms", "ms"},
      {"qos.plan_self_ms", "ms"},
      {"sched.min_slots_ms", "ms"},
      {"sched.stages", "count"},
      {"sched.bellman_ford_ms", "ms"},
      {"sched.tree_fast_path_ms", "ms"},
      {"sched.conflict_edges", "count"},
      {"sched.schedule_slots", "minislots"},
      {"sched.cache_lookups", "count"},
      {"sched.cache_hit_ratio", "ratio"},
      {"ilp.plan_s", "s"},
      {"ilp.schedule_slots", "minislots"},
      {"ilp.bnb_nodes", "count"},
      {"ilp.solve_ms", "ms"},
      {"ilp.cutgen_ms", "ms"},
      {"ilp.cut_rows", "count"},
      {"ilp.rounds", "count"},
      {"ilp.warm_start_attempts", "count"},
      {"ilp.warm_start_hit_ratio", "ratio"},
      {"lp.pivots", "count"},
      {"lp.us_per_pivot", "us"},
      {"admit.decisions_per_s", "1/s"},
      {"admit.decide_us_p50", "us"},
      {"admit.decide_us_p99", "us"},
      {"admit.carried_flows", "flows"},
      {"admit.fast_rejects", "count"},
      {"admit.repair_admits", "count"},
      {"admit.full_solves", "count"},
      {"admit.compactions", "count"},
      {"admit.hot_swaps", "count"},
      {"admit.epoch_evictions", "count"},
      {"admit.fast_reject_us_p50", "us"},
      {"admit.repair_us_p50", "us"},
      {"admit.full_solve_us_p50", "us"},
      {"admit.full_solve_ms_max", "ms"},
      {"admit.release_us_p50", "us"},
      {"admit.epoch_us_p50", "us"},
      {"admit.compact_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"audit.overhead_ratio", "ratio"},
  };
  return kList;
}

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload "
               "city_grid|radio_grid|ilp_plan|admit_churn --seed N "
               "--seconds S --trace 0|1\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Outcome& out, bool trace) {
  const auto& names = trace ? per_layer_metrics() : end_to_end_metrics();
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = out.metrics.find(name);
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(v) +
            ", \"unit\": \"" + unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  opt.process_start = std::chrono::steady_clock::now();
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') usage(argv[0], "bad --seed");
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 3600.0) {
        usage(argv[0], "bad --seconds");
      }
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") usage(argv[0], "--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else {
      usage(argv[0], "unknown argument '" + arg + "'");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage(argv[0], "--seed, --seconds and --trace are required");
  }

  Outcome out;
  if (opt.workload == "city_grid") {
    out = run_city_grid(opt);
  } else if (opt.workload == "radio_grid") {
    out = run_radio_grid(opt);
  } else if (opt.workload == "ilp_plan") {
    out = run_ilp_plan(opt);
  } else if (opt.workload == "admit_churn") {
    out = run_admit_churn(opt);
  } else {
    usage(argv[0], "unknown workload '" + opt.workload + "'");
  }
  out.set("peak_rss_mb", peak_rss_mib());
  // The checkers must still reject their canaries.
  for (const std::string& m : run_canaries()) out.fail_check(m);
  if (out.attempted == 0) out.fail_check("no operation was attempted");
  for (const std::string& f : out.check_failures) {
    std::fprintf(stderr, "%s: check failed: %s\n", opt.workload.c_str(),
                 f.c_str());
  }
  print_result(out, opt.trace);
  return out.correct ? 0 : 1;
}
