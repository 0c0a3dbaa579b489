#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the served-path benchmark: workload definitions and
// seeded inputs, the in-process server on loopback, the owner's query
// protocol run over a RemoteBackend, the owner's insert encoder, and the
// checks against the plaintext oracle.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "oracle.h"
#include "rsse/party.h"
#include "rsse/scheme.h"
#include "server/client.h"
#include "server/server.h"
#include "sse/keyword_keys.h"

namespace perfbench {

enum class Kind { kConstantRanges, kSrcISkewed, kDynamicConstant };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  uint64_t records;
  uint64_t domain;
  uint64_t range_width;
  /// Unclean restarts at the end of a run; recovery_ms is their median.
  int restarts;
};

/// Looks a workload up by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

// Fixed shape of every run.
inline constexpr int kSetups = 3;             // setup_s is their median
inline constexpr int kWarmupQueries = 6;      // per client, untimed
/// The untraced run's clients also warm up for this long before the timed
/// phase: query rates ramp up over the first seconds after set-up.
inline constexpr double kWarmupSeconds = 3.0;
/// The timed phase lasts --seconds and at least this many queries, so that
/// p99 has 10 samples beyond it.
inline constexpr size_t kMinTimedQueries = 1000;
/// The timed phase is cut into this many windows of equal query count;
/// query_p50_ms and query_rate are medians over them.
inline constexpr size_t kWindows = 20;
inline constexpr size_t kInsertBatch = 16;    // records per Update
/// Update batches written before each restart on the read-only workloads
/// (dynamic_constant writes in its timed phase instead).
inline constexpr size_t kProbeBatches = 20;
inline constexpr size_t kQueryPool = 8192;    // seeded ranges, cycled
inline constexpr size_t kVerifyChunk = 2048;  // tokens per verification
inline constexpr int kSearchWorkers = 2;
inline constexpr int kClients = 2;

/// Everything a run derives from `--seed`.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  rsse::Dataset dataset;
  std::vector<rsse::Range> queries;
  /// Planned inserts with fresh ids, in the order the writer sends them.
  std::vector<rsse::Record> inserts;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                  double seconds);

/// Constant-BRC for the Constant workloads; Logarithmic-SRC-i with 4-entry
/// padding and its Bloom gates for `src_i_skewed`.
std::unique_ptr<rsse::RangeScheme> MakeScheme(const WorkloadSpec& spec,
                                              uint64_t seed);

/// Whether the workload's inserts land in range answers (Constant inserts
/// do; SRC-i's write probe posts under fresh owner keywords instead).
inline bool InsertsInRanges(const WorkloadSpec& spec) {
  return spec.kind != Kind::kSrcISkewed;
}

/// `EmmServer` plus the thread running its `Serve` loop.
class ServedStore {
 public:
  explicit ServedStore(const std::string& data_dir);
  ~ServedStore();
  ServedStore(const ServedStore&) = delete;
  ServedStore& operator=(const ServedStore&) = delete;
  rsse::Status Start();
  /// Unclean stop: `Shutdown` without drain, then the server is destroyed.
  void Stop();
  uint16_t port() const { return server_->port(); }
  rsse::server::EmmServer& server() { return *server_; }

 private:
  std::unique_ptr<rsse::server::EmmServer> server_;
  std::thread serve_;
};

/// One range query as `RangeScheme::QueryVia` runs it, with trapdoor
/// generation under the owner's lock so that several clients share one
/// owner.
struct QueryOutcome {
  std::vector<uint64_t> ids;
  int rounds = 0;
  size_t tokens = 0;
  size_t token_bytes = 0;
};

/// Optional per-round hooks (the traced run times around them).
struct QueryHooks {
  virtual ~QueryHooks() = default;
  virtual void BeginTrapdoor() {}
  virtual void EndTrapdoor() {}
  virtual void BeginResolve(const rsse::TokenSet&) {}
  virtual void EndResolve(const rsse::TokenSet&) {}
};

rsse::Result<QueryOutcome> RunQuery(rsse::RangeScheme& scheme,
                                    std::mutex& owner_mu,
                                    rsse::SearchBackend& backend,
                                    const rsse::Range& r,
                                    QueryHooks* hooks = nullptr);

/// The owner's side of inserts: turns planned records into Update entries
/// and keeps the per-value counters the Constant codec needs.
class InsertEncoder {
 public:
  InsertEncoder(const Inputs& inputs, rsse::RangeScheme& scheme,
                std::mutex& owner_mu, const RangeOracle& oracle);
  /// Update entries for planned records [first, first + count).
  rsse::Result<std::vector<std::pair<rsse::Label, rsse::Bytes>>> Encode(
      size_t first, size_t count);
  /// Token sets that find every one of the first `count` planned records
  /// (chunked so that no request grows without bound), and the ids they
  /// must return.
  void VerificationQueries(size_t count, std::vector<rsse::TokenSet>* sets,
                           std::vector<uint64_t>* expected);

 private:
  rsse::sse::KeywordKeys ValueKeys(uint64_t value);

  const Inputs& inputs_;
  rsse::RangeScheme& scheme_;
  std::mutex& owner_mu_;
  const RangeOracle& oracle_;
  std::map<uint64_t, uint64_t> next_counter_;
  rsse::Bytes tag_key_;  // SRC-i probe: owner key for fresh batch keywords
};

/// Checks one range answer: Constant answers must lie between the oracle
/// at the read's start (`acked`) and at its end (`sent`); SRC-i candidates
/// must cover the oracle set and refine to exactly it.
bool CheckRange(const Inputs& inputs, const RangeOracle& oracle,
                const InsertLog* log, size_t acked, size_t sent,
                const rsse::Range& r, const std::vector<uint64_t>& got);

// Small utilities.
double NowSeconds();
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
uint64_t DirBytes(const std::string& dir);
double PeakRssMb();
void RemoveTree(const std::string& path);
std::string MakeWorkDir();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
