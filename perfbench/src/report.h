#pragma once

// Shared plumbing of the benchmark: the options one run receives, the
// metrics it prints, host clocks and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // steady_clock reading at entry to main(): setup_s counts from here.
  std::chrono::steady_clock::time_point process_start;
};

// The object printed as the last line of standard output.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  // units: see *_metrics()
  std::vector<std::string> check_failures;  // printed to stderr

  void set(const std::string& name, double value) { metrics[name] = value; }
  // Records a failed output check; the run then reports correct=false and
  // exits non-zero.
  void fail_check(const std::string& what) {
    correct = false;
    if (check_failures.size() < 20) check_failures.push_back(what);
  }
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Measured rounds repeat while another round of the last one's length
// still fits the time budget; there is always at least one. Traced runs
// keep a third of --seconds for untraced rounds, the base of the overhead
// ratios, and spend the rest on traced and audited rounds.
inline bool another_round(const RunOptions& opt,
                          std::chrono::steady_clock::time_point started,
                          const std::vector<double>& walls) {
  const double budget = opt.trace ? opt.seconds / 3.0 : opt.seconds;
  return walls.empty() || seconds_since(started) + walls.back() <= budget;
}

// The fastest round's wall time: the base of ops_per_s. On a shared host
// slower rounds measure the neighbours' load, which comes and goes within
// seconds; the fastest of several rounds repeats far better across runs
// than their median (the median stays in the per-layer metrics).
inline double fastest(const std::vector<double>& walls) {
  return quantile(walls, 0.0);
}

// Logs the spread of a run's round times to standard error.
void log_rounds(const std::string& workload, const std::vector<double>& walls);

// Peak resident set size of this process, in MiB.
double peak_rss_mib();

// Every metric the benchmark declares, by mode, with its unit. A run
// prints exactly one of these sets: end-to-end metrics untraced, the
// per-layer breakdown traced. Workloads that never enter a layer report
// its metrics as 0.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
