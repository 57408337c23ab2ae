// Shared helpers for the experiment harnesses (bench/bench_*.cc).
#pragma once

#include <iostream>
#include <memory>
#include <string>

#include "harness/stack_cluster.h"
#include "metrics/stats.h"
#include "metrics/table.h"

namespace cht::bench {

// Experiment headers/tables/artifacts are declared through ExperimentResult
// (common/experiment.h); this header keeps only the small formatting
// helpers.

inline std::string us(Duration d) {
  return metrics::Table::num(static_cast<std::int64_t>(d.to_micros()));
}

inline std::string ms2(Duration d) {
  return metrics::Table::num(d.to_millis_f(), 2);
}

}  // namespace cht::bench
