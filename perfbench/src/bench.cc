#include "bench.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/rng.h"
#include "crypto/random.h"
#include "data/generators.h"
#include "rsse/constant.h"
#include "rsse/log_src_i.h"
#include "sse/emm_codec.h"
#include "sse/encrypted_multimap.h"

namespace perfbench {

using rsse::Bytes;
using rsse::Range;
using rsse::Record;

namespace {

// The three workloads. Ranges are drawn uniformly with the given width.
// A Constant restart takes about 60 ms and an SRC-i one about 600 ms, so
// constant_ranges takes more restarts for a steady median.
const WorkloadSpec kWorkloads[] = {
    {"constant_ranges", Kind::kConstantRanges, 100000, uint64_t{1} << 20,
     4096, 25},
    {"src_i_skewed", Kind::kSrcISkewed, 50000, 276841, 276841 / 4, 9},
    {"dynamic_constant", Kind::kDynamicConstant, 100000, uint64_t{1} << 20,
     512, 9},
};

// SRC-i padding quantum: padding dummies are what the Bloom gate skips.
constexpr uint64_t kSrcIPadQuantum = 4;

// Planned Update batches per second of a dynamic run; the writer stops
// early if it ever exhausts them.
constexpr size_t kDynamicBatchesPerSecond = 3000;

/// Deriver that hands out one fixed key pair (a Constant value's keys).
class FixedKeys : public rsse::sse::KeywordKeyDeriver {
 public:
  explicit FixedKeys(rsse::sse::KeywordKeys keys) : keys_(std::move(keys)) {}
  rsse::sse::KeywordKeys Derive(const Bytes&) const override { return keys_; }

 private:
  rsse::sse::KeywordKeys keys_;
};

/// Default options except an ephemeral port, the run's data directory and
/// two search workers.
rsse::server::ServerOptions BenchServerOptions(const std::string& data_dir) {
  rsse::server::ServerOptions o;
  o.port = 0;
  o.data_dir = data_dir;
  o.search_workers = kSearchWorkers;
  return o;
}

Bytes BatchKeyword(size_t first) {
  const std::string w = "perfbench-insert/" + std::to_string(first);
  return Bytes(w.begin(), w.end());
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Inputs in;
  in.spec = &spec;
  rsse::Rng data_rng(seed * 0x9E3779B97F4A7C15ull + 1);
  in.dataset = spec.kind == Kind::kSrcISkewed
                   ? rsse::GenerateUspsLike(spec.records, spec.domain, data_rng)
                   : rsse::GenerateGowallaLike(spec.records, spec.domain,
                                               data_rng);
  rsse::Rng query_rng(seed * 0x9E3779B97F4A7C15ull + 2);
  in.queries.reserve(kQueryPool);
  for (size_t i = 0; i < kQueryPool; ++i) {
    const uint64_t lo = query_rng.Uniform(0, spec.domain - spec.range_width);
    in.queries.push_back(Range{lo, lo + spec.range_width - 1});
  }
  const size_t batches =
      spec.kind == Kind::kDynamicConstant
          ? kDynamicBatchesPerSecond * static_cast<size_t>(std::ceil(seconds))
          : kProbeBatches * spec.restarts;
  rsse::Rng insert_rng(seed * 0x9E3779B97F4A7C15ull + 3);
  in.inserts.reserve(batches * kInsertBatch);
  for (size_t i = 0; i < batches * kInsertBatch; ++i) {
    in.inserts.push_back(
        Record{spec.records + i, insert_rng.Uniform(0, spec.domain - 1)});
  }
  return in;
}

std::unique_ptr<rsse::RangeScheme> MakeScheme(const WorkloadSpec& spec,
                                              uint64_t seed) {
  if (spec.kind == Kind::kSrcISkewed) {
    auto s = std::make_unique<rsse::LogarithmicSrcIScheme>(seed,
                                                           kSrcIPadQuantum);
    s->EnableBloomGate();
    return s;
  }
  return std::make_unique<rsse::ConstantScheme>(rsse::CoverTechnique::kBrc,
                                                seed);
}

ServedStore::ServedStore(const std::string& data_dir)
    : server_(std::make_unique<rsse::server::EmmServer>(
          BenchServerOptions(data_dir))) {}

ServedStore::~ServedStore() { Stop(); }

rsse::Status ServedStore::Start() {
  rsse::Status s = server_->Listen();
  if (!s.ok()) return s;
  serve_ = std::thread([srv = server_.get()] { (void)srv->Serve(); });
  return rsse::Status::Ok();
}

void ServedStore::Stop() {
  if (server_ == nullptr) return;
  server_->Shutdown();
  if (serve_.joinable()) serve_.join();
  server_.reset();
}

rsse::Result<QueryOutcome> RunQuery(rsse::RangeScheme& scheme,
                                    std::mutex& owner_mu,
                                    rsse::SearchBackend& backend,
                                    const Range& r, QueryHooks* hooks) {
  QueryHooks none;
  QueryHooks& h = hooks != nullptr ? *hooks : none;
  rsse::TrapdoorGenerator& owner = scheme.trapdoors();
  QueryOutcome out;
  std::optional<rsse::TokenSet> tokens;
  {
    h.BeginTrapdoor();
    std::lock_guard<std::mutex> lock(owner_mu);
    rsse::Result<rsse::TokenSet> first = owner.Trapdoor(r);
    h.EndTrapdoor();
    if (!first.ok()) return first.status();
    tokens = std::move(*first);
  }
  rsse::ResolvedIds last;
  while (tokens.has_value()) {
    ++out.rounds;
    out.tokens += tokens->TokenCount();
    out.token_bytes += tokens->TokenBytes();
    h.BeginResolve(*tokens);
    rsse::Result<rsse::ResolvedIds> resolved = backend.Resolve(*tokens);
    h.EndResolve(*tokens);
    if (!resolved.ok()) return resolved.status();
    last = std::move(*resolved);
    h.BeginTrapdoor();
    std::lock_guard<std::mutex> lock(owner_mu);
    rsse::Result<std::optional<rsse::TokenSet>> next =
        owner.ContinueTrapdoor(r, out.rounds, last);
    h.EndTrapdoor();
    if (!next.ok()) return next.status();
    tokens = std::move(*next);
  }
  out.ids.reserve(last.payloads.size());
  for (const Bytes& payload : last.payloads) {
    if (auto id = rsse::sse::DecodeIdPayload(payload); id.has_value()) {
      out.ids.push_back(*id);
    }
  }
  return out;
}

InsertEncoder::InsertEncoder(const Inputs& inputs, rsse::RangeScheme& scheme,
                             std::mutex& owner_mu, const RangeOracle& oracle)
    : inputs_(inputs),
      scheme_(scheme),
      owner_mu_(owner_mu),
      oracle_(oracle),
      tag_key_(rsse::crypto::GenerateKey()) {}

rsse::sse::KeywordKeys InsertEncoder::ValueKeys(uint64_t value) {
  // A one-value delegation is the value's GGM leaf: exactly the shared
  // secret the scheme derived that keyword's SSE keys from at Build time.
  std::vector<rsse::GgmDprf::Token> leaf;
  {
    std::lock_guard<std::mutex> lock(owner_mu_);
    leaf = static_cast<rsse::ConstantScheme&>(scheme_).Delegate(
        Range{value, value});
  }
  return rsse::sse::KeysFromSharedSecret(leaf.at(0).seed);
}

rsse::Result<std::vector<std::pair<rsse::Label, Bytes>>> InsertEncoder::Encode(
    size_t first, size_t count) {
  std::vector<std::pair<rsse::Label, Bytes>> entries;
  rsse::sse::EmmBuildScratch scratch;
  if (!InsertsInRanges(*inputs_.spec)) {
    // SRC-i write probe: the batch is one fresh owner keyword's posting
    // list, encrypted by the shared codec from counter 0.
    std::vector<Bytes> payloads;
    for (size_t i = first; i < first + count; ++i) {
      payloads.push_back(rsse::sse::EncodeIdPayload(inputs_.inserts[i].id));
    }
    rsse::sse::PrfKeyDeriver deriver(tag_key_);
    rsse::Status s = rsse::sse::EncryptKeywordEntries(
        BatchKeyword(first), payloads, deriver, 0, scratch,
        [&entries](const rsse::Label& label, size_t len) {
          entries.emplace_back(label, Bytes(len));
          return rsse::ByteSpan(entries.back().second.data(), len);
        });
    if (!s.ok()) return s;
    return entries;
  }
  // Constant insert: the record's value keyword gets one more entry at the
  // value's next counter. The codec encrypts a posting list from counter
  // 0, so the entries below that counter are produced and discarded.
  Bytes discard;
  for (size_t i = first; i < first + count; ++i) {
    const Record& rec = inputs_.inserts[i];
    auto [it, fresh] = next_counter_.try_emplace(rec.attr, 0);
    if (fresh) it->second = oracle_.CountOfValue(rec.attr);
    const uint64_t counter = it->second++;
    std::vector<Bytes> payloads(counter + 1, rsse::sse::EncodeIdPayload(0));
    payloads.back() = rsse::sse::EncodeIdPayload(rec.id);
    const FixedKeys deriver(ValueKeys(rec.attr));
    uint64_t emitted = 0;
    rsse::Status s = rsse::sse::EncryptKeywordEntries(
        Bytes{}, payloads, deriver, 0, scratch,
        [&](const rsse::Label& label, size_t len) {
          if (emitted++ < counter) {
            discard.resize(len);
            return rsse::ByteSpan(discard.data(), len);
          }
          entries.emplace_back(label, Bytes(len));
          return rsse::ByteSpan(entries.back().second.data(), len);
        });
    if (!s.ok()) return s;
  }
  return entries;
}

void InsertEncoder::VerificationQueries(size_t count,
                                        std::vector<rsse::TokenSet>* sets,
                                        std::vector<uint64_t>* expected) {
  sets->clear();
  expected->clear();
  if (!InsertsInRanges(*inputs_.spec)) {
    rsse::sse::PrfKeyDeriver deriver(tag_key_);
    for (size_t first = 0; first < count; first += kInsertBatch) {
      if (sets->empty() || sets->back().keyword.size() >= kVerifyChunk) {
        sets->emplace_back();
      }
      sets->back().keyword.push_back(deriver.Derive(BatchKeyword(first)));
    }
    for (size_t i = 0; i < count; ++i) {
      expected->push_back(inputs_.inserts[i].id);
    }
  } else {
    std::map<uint64_t, std::vector<uint64_t>> by_value;
    for (size_t i = 0; i < count; ++i) {
      by_value[inputs_.inserts[i].attr].push_back(inputs_.inserts[i].id);
    }
    for (const auto& [value, ids] : by_value) {
      if (sets->empty() || sets->back().ggm.size() >= kVerifyChunk) {
        sets->emplace_back();
      }
      std::lock_guard<std::mutex> lock(owner_mu_);
      for (rsse::GgmDprf::Token& t :
           static_cast<rsse::ConstantScheme&>(scheme_).Delegate(
               Range{value, value})) {
        sets->back().ggm.push_back(std::move(t));
      }
      for (uint64_t id : oracle_.IdsInRange(value, value)) {
        expected->push_back(id);
      }
      expected->insert(expected->end(), ids.begin(), ids.end());
    }
  }
  std::sort(expected->begin(), expected->end());
}

bool CheckRange(const Inputs& inputs, const RangeOracle& oracle,
                const InsertLog* log, size_t acked, size_t sent,
                const Range& r, const std::vector<uint64_t>& got) {
  std::vector<uint64_t> lower = oracle.IdsInRange(r.lo, r.hi);
  if (!InsertsInRanges(*inputs.spec)) {
    std::vector<uint64_t> candidates = got;
    std::sort(candidates.begin(), candidates.end());
    return std::adjacent_find(candidates.begin(), candidates.end()) ==
               candidates.end() &&
           std::includes(candidates.begin(), candidates.end(), lower.begin(),
                         lower.end()) &&
           oracle.Refine(candidates, r.lo, r.hi) == lower;
  }
  std::vector<uint64_t> upper = lower;
  if (log != nullptr) {
    log->AppendIdsInRange(acked, r.lo, r.hi, lower);
    log->AppendIdsInRange(sent, r.lo, r.hi, upper);
    std::sort(lower.begin(), lower.end());
    std::sort(upper.begin(), upper.end());
  }
  return BetweenOracles(got, lower, upper);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest-rank on the sorted samples.
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0) {
      continue;
    }
    const std::string path = dir + "/" + e->d_name;
    struct stat st;
    if (lstat(path.c_str(), &st) != 0) continue;
    total += S_ISDIR(st.st_mode) ? DirBytes(path)
                                 : static_cast<uint64_t>(st.st_size);
  }
  closedir(d);
  return total;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

void RemoveTree(const std::string& path) {
  struct stat st;
  if (lstat(path.c_str(), &st) != 0) return;
  if (S_ISDIR(st.st_mode)) {
    if (DIR* d = opendir(path.c_str())) {
      while (dirent* e = readdir(d)) {
        if (std::strcmp(e->d_name, ".") != 0 &&
            std::strcmp(e->d_name, "..") != 0) {
          RemoveTree(path + "/" + e->d_name);
        }
      }
      closedir(d);
    }
    rmdir(path.c_str());
  } else {
    unlink(path.c_str());
  }
}

std::string MakeWorkDir() {
  mkdir(".bench_build", 0755);
  mkdir(".bench_build/runs", 0755);
  const std::string dir =
      ".bench_build/runs/run-" + std::to_string(getpid());
  RemoveTree(dir);
  mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace perfbench
