#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// The benchmark's output: provenance lines (prefixed "# ") and, as the last
// line of stdout, one JSON object with the run's metrics.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "crypto/prg.h"

namespace perfbench {

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit});
  }

  void Print(bool correct, size_t attempted, size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Server settings as the running server resolved them.
struct ResolvedSettings {
  bool mmap = false;
  unsigned snapshot_format = 0;
  unsigned shards = 0;
};

inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

inline void PrintProvenance(const WorkloadSpec& spec, uint64_t seed,
                            bool traced, const ResolvedSettings& resolved) {
  std::printf(
      "# provenance: workload=%s seed=%llu trace=%d build_type=%s "
      "compiler=\"%s\" nproc=%ld cpu=\"%s\"\n",
      spec.name, static_cast<unsigned long long>(seed), traced ? 1 : 0,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN),
      CpuModel().c_str());
  std::printf(
      "# server: search_workers=%d mmap=%s snapshot_format=v%u shards=%u "
      "ggm_prg=%s clients=%d\n",
      kSearchWorkers, resolved.mmap ? "on" : "off", resolved.snapshot_format,
      resolved.shards,
      rsse::crypto::GgmPrg::backend() == rsse::crypto::GgmPrg::Backend::kAes
          ? "aes"
          : "hmac",
      kClients);
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
