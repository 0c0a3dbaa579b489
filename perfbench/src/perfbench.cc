// Served range-search benchmark: drives the owner's RangeScheme through
// RemoteBackend/EmmClient to an in-process EmmServer on loopback with a
// data directory, checks every answer against a plaintext oracle, and ends
// each run with unclean restarts.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// inputs through each module's public calls and prints per-layer metrics
// (layers.cc). The last line of stdout is one JSON object.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "report.h"
#include "server/remote_backend.h"

namespace perfbench {
namespace {

using rsse::Status;

/// Variables that silently change the program being measured.
const char* const kGuardedEnv[] = {
    "RSSE_GGM_PRG",        "RSSE_MMAP",          "RSSE_SHARDS",
    "RSSE_SEARCH_THREADS", "RSSE_BUILD_THREADS", "RSSE_NO_AVX2",
    "RSSE_NO_AVX512",      "RSSE_FAILPOINTS",
};

bool EnvironmentClean() {
  bool clean = true;
  for (const char* name : kGuardedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; it changes the program under "
                   "measurement. Unset it and rerun.\n",
                   name);
      clean = false;
    }
  }
  return clean;
}

struct OpCounts {
  size_t attempted = 0;
  size_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Tally {
  OpCounts setups, queries, updates, restarts;
  size_t attempted() const {
    return setups.attempted + queries.attempted + updates.attempted +
           restarts.attempted;
  }
  size_t failed() const {
    return setups.failed + queries.failed + updates.failed + restarts.failed;
  }
};

/// One deferred dynamic-read check: the answer plus the writer's counters
/// at the read's start and end.
struct DeferredRead {
  size_t query = 0;
  size_t acked = 0;
  size_t sent = 0;
  std::vector<uint64_t> ids;
};

class UntracedRun {
 public:
  UntracedRun(const Inputs& in, uint64_t seed, double seconds,
              std::string work)
      : in_(in),
        seed_(seed),
        seconds_(seconds),
        work_(std::move(work)),
        oracle_(in.dataset.records()),
        log_(in.inserts) {}

  int Run() {
    if (!Setups() || !TimedPhase() || !Restarts()) {
      correct_ = false;
    }
    PrintProvenance(*in_.spec, seed_, false, resolved_);
    served_.reset();
    const double live_records =
        static_cast<double>(in_.dataset.size() + log_.acked());
    const double store_bytes = static_cast<double>(DirBytes(data_dir_));
    std::printf(
        "# ops: setups %zu/%zu queries %zu/%zu updates %zu/%zu restarts "
        "%zu/%zu (attempted/failed)\n",
        tally_.setups.attempted, tally_.setups.failed,
        tally_.queries.attempted, tally_.queries.failed,
        tally_.updates.attempted, tally_.updates.failed,
        tally_.restarts.attempted, tally_.restarts.failed);

    Report report;
    report.Add("setup_s", Median(setup_s_), "s");
    // Medians over the windows of the timed phase, so that a few slow
    // seconds on a shared host do not move the run's figure.
    std::vector<double> window_rates, window_p50s;
    for (const Window& w : windows_) {
      window_rates.push_back(w.rate);
      window_p50s.push_back(w.p50_ms);
    }
    report.Add("query_p50_ms", Median(window_p50s), "ms");
    report.Add("query_rate", Median(window_rates), "queries/s");
    report.Add("recovery_ms", Median(recovery_ms_), "ms");
    report.Add("store_bytes_per_record", store_bytes / live_records, "B");
    // Each wakeup of an idle vCPU costs more when the host is busy, so the
    // switches per query show how much a busy host can slow a query.
    std::printf(
        "# timed phase: %zu queries in %.3f s, %.1f voluntary context "
        "switches per query; %zu inserts acked\n",
        query_ms_.size(), phase_s_,
        query_ms_.empty() ? 0 : phase_switches_ / query_ms_.size(),
        log_.acked());
    std::printf("# peak resident set: %.1f MB\n", PeakRssMb());
    std::printf("# windows of the timed phase (queries/s, median ms):");
    for (const Window& w : windows_) {
      std::printf(" %.0f/%.2f", w.rate, w.p50_ms);
    }
    std::printf("\n");
    for (const auto& [what, v] :
         {std::make_pair("query", &query_ms_),
          std::make_pair("update", &update_ms_)}) {
      double sum = 0;
      for (double x : *v) sum += x;
      std::printf(
          "# %s latency ms over %zu samples: mean %.4f p25 %.4f p50 %.4f "
          "p75 %.4f p90 %.4f p99 %.4f\n",
          what, v->size(), v->empty() ? 0 : sum / v->size(),
          Percentile(*v, 0.25),
          Percentile(*v, 0.5), Percentile(*v, 0.75), Percentile(*v, 0.9),
          Percentile(*v, 0.99));
    }
    report.Print(correct_, tally_.attempted(), tally_.failed());
    RemoveTree(work_);
    return correct_ ? 0 : 1;
  }

 private:
  bool Fail(const char* what, const Status& s = Status::Ok()) {
    std::fprintf(stderr, "perfbench: %s %s\n", what, s.message().c_str());
    correct_ = false;
    return false;
  }

  // setup_s: plaintext dataset -> last acknowledged SetupStore, repeated
  // kSetups times on fresh servers and directories; the last one serves.
  bool Setups() {
    for (int k = 0; k < kSetups; ++k) {
      served_.reset();
      scheme_.reset();
      data_dir_ = work_ + "/store-" + std::to_string(k);
      RemoveTree(work_ + "/store-" + std::to_string(k - 1));
      mkdir(data_dir_.c_str(), 0755);
      auto served = std::make_unique<ServedStore>(data_dir_);
      Status s = served->Start();
      rsse::server::EmmClient client;
      if (s.ok()) s = client.Connect("127.0.0.1", served->port());
      if (!s.ok()) {
        tally_.setups.Add(false);
        return Fail("server start failed:", s);
      }
      const double t0 = NowSeconds();
      std::unique_ptr<rsse::RangeScheme> scheme = MakeScheme(*in_.spec, seed_);
      s = scheme->Build(in_.dataset);
      if (s.ok()) {
        rsse::Result<rsse::ServerSetup> setup = scheme->ExportServerSetup();
        s = setup.ok() ? rsse::server::InstallServerSetup(client, *setup)
                       : setup.status();
      }
      setup_s_.push_back(NowSeconds() - t0);
      tally_.setups.Add(s.ok());
      if (!s.ok()) return Fail("setup failed:", s);
      served_ = std::move(served);
      scheme_ = std::move(scheme);
    }
    encoder_ = std::make_unique<InsertEncoder>(in_, *scheme_, owner_mu_,
                                               oracle_);
    rsse::server::EmmClient client;
    Status s = client.Connect("127.0.0.1", served_->port());
    rsse::Result<rsse::server::StatsResponse> stats =
        s.ok() ? client.Stats() : rsse::Result<rsse::server::StatsResponse>(s);
    if (!stats.ok()) return Fail("stats failed:", stats.status());
    base_entries_ = stats->entries;
    resolved_.shards = stats->shards;
    resolved_.snapshot_format = stats->snapshot_format;
    resolved_.mmap = served_->server().mmap_enabled();
    return true;
  }

  // The timed closed loop: kClients query clients, or on dynamic_constant
  // one reader beside one writer that inserts until the reader stops. Each
  // client waits for its answer before sending the next query. The loop
  // lasts --seconds and at least kMinTimedQueries queries. Reads beside the
  // writer are checked afterwards against the oracle at their start and end.
  bool TimedPhase() {
    const bool writer_on = in_.spec->kind == Kind::kDynamicConstant;
    const int readers = writer_on ? 1 : kClients;
    std::atomic<size_t> next_query{0};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> ok{true};
    std::atomic<size_t> timed_queries{0};
    std::atomic<bool> readers_done{false};
    double start = 0;
    double deadline = 0;
    std::vector<std::vector<double>> lat(readers), ends(readers);
    std::vector<std::vector<DeferredRead>> deferred(readers);

    auto reader = [&](int c) {
      rsse::server::EmmClient client;
      if (!client.Connect("127.0.0.1", served_->port()).ok()) {
        ok = false;
        ready.fetch_add(1);
        return;
      }
      rsse::server::RemoteBackend backend(client);
      AnswerChecker checker(oracle_, in_.dataset.records());
      auto one = [&](bool timed) {
        const size_t q = next_query.fetch_add(1) % in_.queries.size();
        const size_t acked = log_.acked();
        const double t0 = NowSeconds();
        rsse::Result<QueryOutcome> out =
            RunQuery(*scheme_, owner_mu_, backend, in_.queries[q]);
        const double t1 = NowSeconds();
        const size_t sent = log_.sent();
        bool good = out.ok();
        if (good && writer_on) {
          deferred[c].push_back({q, acked, sent, std::move(out->ids)});
        } else if (good) {
          const rsse::Range& r = in_.queries[q];
          good = InsertsInRanges(*in_.spec)
                     ? checker.Exact(r.lo, r.hi, out->ids)
                     : checker.Candidates(r.lo, r.hi, out->ids);
        }
        if (good && timed) {
          lat[c].push_back((t1 - t0) * 1e3);
          ends[c].push_back(t1 - start);
          timed_queries.fetch_add(1);
        }
        std::lock_guard<std::mutex> lock(tally_mu_);
        tally_.queries.Add(good);
        if (!good) ok = false;
      };
      const double warm_until = NowSeconds() + kWarmupSeconds;
      for (int i = 0; ok.load() && (i < kWarmupQueries ||
                                    NowSeconds() < warm_until);
           ++i) {
        one(false);
      }
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (ok.load() && (NowSeconds() < deadline ||
                           timed_queries.load() < kMinTimedQueries)) {
        one(true);
      }
      readers_done = true;
    };

    auto writer = [&] {
      rsse::server::EmmClient client;
      const bool connected =
          client.Connect("127.0.0.1", served_->port()).ok();
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (connected && !readers_done.load() &&
             log_.sent() + kInsertBatch <= log_.capacity()) {
        if (!WriteBatch(client)) break;
      }
      if (!connected) ok = false;
    };

    std::vector<std::thread> threads;
    for (int c = 0; c < readers; ++c) threads.emplace_back(reader, c);
    if (writer_on) threads.emplace_back(writer);
    while (ready.load() < static_cast<int>(threads.size())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    struct rusage ru0;
    getrusage(RUSAGE_SELF, &ru0);
    start = NowSeconds();
    deadline = start + seconds_;
    go = true;
    for (std::thread& t : threads) t.join();
    phase_s_ = NowSeconds() - start;
    struct rusage ru1;
    getrusage(RUSAGE_SELF, &ru1);
    phase_switches_ = static_cast<double>(ru1.ru_nvcsw - ru0.ru_nvcsw);

    std::vector<std::pair<double, double>> done;  // (end s, latency ms)
    for (int c = 0; c < readers; ++c) {
      query_ms_.insert(query_ms_.end(), lat[c].begin(), lat[c].end());
      for (size_t i = 0; i < lat[c].size(); ++i) {
        done.emplace_back(ends[c][i], lat[c][i]);
      }
    }
    std::sort(done.begin(), done.end());
    windows_ = CutWindows(done);
    for (const auto& reads : deferred) {
      for (const DeferredRead& r : reads) {
        if (!CheckRange(in_, oracle_, &log_, r.acked, r.sent,
                        in_.queries[r.query], r.ids)) {
          std::fprintf(stderr, "perfbench: read of range %zu out of bounds\n",
                       r.query);
          ++tally_.queries.failed;
          ok = false;
        }
      }
    }
    return ok.load() || Fail("timed phase failed");
  }

  /// One stretch of the timed phase: its query rate and median latency.
  struct Window {
    double rate = 0;
    double p50_ms = 0;
  };

  /// Cuts the completed queries, in completion order, into kWindows runs
  /// of equal count. A window's rate is its count over the time from the
  /// previous window's last completion (or the phase start) to its own.
  static std::vector<Window> CutWindows(
      const std::vector<std::pair<double, double>>& done) {
    std::vector<Window> windows;
    const size_t per = done.size() / kWindows;
    if (per == 0) return windows;
    double from = 0;
    for (size_t w = 0; w < kWindows; ++w) {
      std::vector<double> lat;
      for (size_t i = w * per; i < (w + 1) * per; ++i) {
        lat.push_back(done[i].second);
      }
      const double to = done[(w + 1) * per - 1].first;
      windows.push_back({per / (to - from), Median(std::move(lat))});
      from = to;
    }
    return windows;
  }

  /// Sends the next planned batch and records its latency (send to ack).
  bool WriteBatch(rsse::server::EmmClient& client) {
    const size_t first = log_.sent();
    rsse::Result<std::vector<std::pair<rsse::Label, rsse::Bytes>>> entries =
        encoder_->Encode(first, kInsertBatch);
    bool good = entries.ok();
    if (good) {
      log_.MarkSent(first + kInsertBatch);
      const double t0 = NowSeconds();
      rsse::Result<rsse::server::UpdateResponse> resp =
          client.Update(*entries);
      const double t1 = NowSeconds();
      good = resp.ok();
      if (good) {
        log_.MarkAcked(first + kInsertBatch);
        ++acked_batches_;
        update_ms_.push_back((t1 - t0) * 1e3);
      }
    }
    std::lock_guard<std::mutex> lock(tally_mu_);
    tally_.updates.Add(good);
    return good;
  }

  // Unclean restarts, each after a write probe on the read-only workloads.
  bool Restarts() {
    for (int k = 0; k < in_.spec->restarts; ++k) {
      if (in_.spec->kind != Kind::kDynamicConstant) {
        // Write probe: the read-only workloads get acknowledged WAL
        // batches for every restart to replay.
        rsse::server::EmmClient client;
        if (!client.Connect("127.0.0.1", served_->port()).ok()) {
          return Fail("write probe connect failed");
        }
        for (size_t b = 0; b < kProbeBatches; ++b) {
          if (!WriteBatch(client)) return Fail("write probe failed");
        }
      }
      served_->Stop();
      served_.reset();

      const double t0 = NowSeconds();
      auto served = std::make_unique<ServedStore>(data_dir_);
      Status s = served->Start();
      rsse::server::EmmClient client;
      if (s.ok()) s = client.Connect("127.0.0.1", served->port());
      rsse::server::RemoteBackend backend(client);
      const rsse::Range& r = in_.queries[k];
      rsse::Result<QueryOutcome> out =
          s.ok() ? RunQuery(*scheme_, owner_mu_, backend, r)
                 : rsse::Result<QueryOutcome>(s);
      const double t1 = NowSeconds();
      served_ = std::move(served);
      const bool answered = out.ok();
      if (answered) recovery_ms_.push_back((t1 - t0) * 1e3);
      const bool good = answered && CheckRange(in_, oracle_, &log_,
                                               log_.acked(), log_.acked(), r,
                                               out->ids);
      tally_.queries.Add(good);
      const bool recovered = good && VerifyRecovered(client, backend);
      tally_.restarts.Add(recovered);
      if (!recovered) return Fail("restart verification failed:", s);
    }
    return true;
  }

  // Recovery replays exactly the acknowledged WAL batches, the entry count
  // is the records plus the acknowledged inserts, and every acknowledged
  // insert is found.
  bool VerifyRecovered(rsse::server::EmmClient& client,
                       rsse::server::RemoteBackend& backend) {
    const auto& rs = served_->server().recovery_stats();
    if (rs.wal_records_applied != acked_batches_) {
      std::fprintf(stderr, "perfbench: replayed %zu WAL batches, acked %zu\n",
                   rs.wal_records_applied, acked_batches_);
      return false;
    }
    rsse::Result<rsse::server::StatsResponse> stats = client.Stats();
    if (!stats.ok() || stats->entries != base_entries_ + log_.acked()) {
      std::fprintf(stderr, "perfbench: entry count mismatch after restart\n");
      return false;
    }
    std::vector<rsse::TokenSet> sets;
    std::vector<uint64_t> expected;
    encoder_->VerificationQueries(log_.acked(), &sets, &expected);
    std::vector<uint64_t> found;
    for (const rsse::TokenSet& set : sets) {
      rsse::Result<rsse::ResolvedIds> got = backend.Resolve(set);
      if (!got.ok()) return false;
      for (const rsse::Bytes& p : got->payloads) {
        if (auto id = rsse::sse::DecodeIdPayload(p)) found.push_back(*id);
      }
    }
    std::sort(found.begin(), found.end());
    if (found != expected) {
      std::fprintf(stderr, "perfbench: acknowledged inserts missing after "
                           "restart (%zu found, %zu expected)\n",
                   found.size(), expected.size());
      return false;
    }
    return true;
  }

  const Inputs& in_;
  const uint64_t seed_;
  const double seconds_;
  const std::string work_;
  const RangeOracle oracle_;
  InsertLog log_;
  std::mutex owner_mu_;
  std::unique_ptr<rsse::RangeScheme> scheme_;
  std::unique_ptr<ServedStore> served_;
  std::unique_ptr<InsertEncoder> encoder_;
  std::string data_dir_;
  uint64_t base_entries_ = 0;
  size_t acked_batches_ = 0;
  ResolvedSettings resolved_;
  std::mutex tally_mu_;  // guards tally_ while client threads run
  Tally tally_;
  bool correct_ = true;
  std::vector<double> setup_s_, query_ms_, update_ms_, recovery_ms_;
  std::vector<Window> windows_;
  double phase_switches_ = 0;  // voluntary context switches, timed phase
  double phase_s_ = 0;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <constant_ranges|src_i_skewed|"
               "dynamic_constant> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || seconds <= 0) return Usage();
  if (!EnvironmentClean()) return 2;

  const Inputs inputs = MakeInputs(*spec, seed, seconds);
  const std::string work = MakeWorkDir();
  if (trace != 0) return RunTraced(inputs, seed, seconds, work);
  UntracedRun run(inputs, seed, seconds, work);
  return run.Run();
}
