// The benchmark's workloads: how each one's input is generated from a seed
// and which pipeline parameters it runs with.  NOTES.md says why each exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "simdata/reads.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  mrmc::core::PipelineParams params;
  /// The workload's reads and truth labels.  Same seed, same reads.
  mrmc::simdata::LabeledReads (*generate)(std::uint64_t seed);
};

/// All workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();

/// Look up a workload by name; throws std::invalid_argument if unknown.
const Workload& find_workload(const std::string& name);

}  // namespace perfbench
