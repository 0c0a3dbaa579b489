#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

/// The traced run (--trace 1): replays the workload's own inputs through
/// each module's public calls, one span per call, and prints the per-layer
/// metrics. Spans are written to .bench_build/spans/ when the run ends.
int RunTraced(const Inputs& in, uint64_t seed, double seconds,
              const std::string& work);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
