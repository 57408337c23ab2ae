// The benchmark's workloads: each is a base RunSpec plus the size of its
// reference seed set. See perfbench/README.md for why each exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/spec.h"

namespace chtbench {

struct Workload {
  std::string name;
  cht::chaos::RunSpec spec;  // spec.seed is replaced per seed
  // Seeds every run completes, whatever --seconds says, and then repeats
  // while time is left. Simulated-time metrics, counts and the fingerprint
  // digest cover exactly these, so they are exact for a given --seed; the
  // wall-clock metrics take each one's median run.
  int reference_seeds = 100;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// The chaos seed at position `index` of bench seed `bench_seed`'s stream.
// Streams of different bench seeds never overlap (a million seeds apart).
std::uint64_t chaos_seed(std::uint64_t bench_seed, std::uint64_t index);

}  // namespace chtbench
