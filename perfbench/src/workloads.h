#pragma once

// The benchmark's workloads. Each builds its inputs from the seed, runs
// whole rounds of the same operations for the requested time, checks the
// program's outputs and fills in its metrics.

#include "report.h"

namespace perfbench {

Outcome run_city_grid(const RunOptions& opt);
Outcome run_radio_grid(const RunOptions& opt);
Outcome run_ilp_plan(const RunOptions& opt);
Outcome run_admit_churn(const RunOptions& opt);

}  // namespace perfbench
