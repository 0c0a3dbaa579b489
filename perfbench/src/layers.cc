// The traced run: the same inputs as the untraced run, replayed through the
// public calls of each module with one span per call. Spans are kept in
// memory and written out as JSON lines when the run ends; summary.py turns
// them into a per-module table.

#include "layers.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/hmac_prf.h"
#include "crypto/random.h"
#include "dprf/ggm_dprf.h"
#include "report.h"
#include "rsse/bloom_gate.h"
#include "rsse/local_backend.h"
#include "server/persist.h"
#include "server/remote_backend.h"
#include "server/wire.h"
#include "shard/sharded_emm.h"
#include "sse/encrypted_multimap.h"
#include "sse/keyword_keys.h"

namespace perfbench {
namespace {

using rsse::Bytes;
using rsse::Status;

// Queries replayed through the in-process layers (after the served-path
// queries that measure the tracing overhead).
constexpr size_t kLayerQueries = 32;
// Update batches timed through EmmClient::Update and AppendUpdate.
constexpr size_t kTracedUpdates = 40;
// Values whose DPRF leaf is evaluated for dprf.eval_us.
constexpr size_t kEvalValues = 2000;
// SearchEntries derives labels 8 at a time and decrypts up to 32 at once.
constexpr size_t kLabelChunk = 8;
constexpr size_t kDecryptBatch = 32;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for one thread. A span's parent is the span
/// open when it began; all spans of one query share a request id.
class Tracer {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;  // 0 = root
    uint64_t request = 0;
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t items = 0;  // work units the call covered (leaves, probes, ...)
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name, uint64_t items = 0)
        : t_(t), index_(t.Begin(name, items)) {}
    ~Scope() { t_.End(index_); }
    void set_items(uint64_t items) { t_.spans_[index_].items = items; }

   private:
    Tracer& t_;
    size_t index_;
  };

  void NewRequest() { ++request_; }

  size_t Begin(const char* name, uint64_t items) {
    Span s;
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.request = request_;
    s.name = name;
    s.items = items;
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    spans_.back().start_ns = NowNs();
    return spans_.size() - 1;
  }

  void End(size_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  struct Totals {
    uint64_t count = 0;
    double ns = 0;
    double items = 0;
  };
  Totals Sum(const std::string& name) const {
    Totals t;
    for (const Span& s : spans_) {
      if (name == s.name) {
        ++t.count;
        t.ns += static_cast<double>(s.end_ns - s.start_ns);
        t.items += static_cast<double>(s.items);
      }
    }
    return t;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"items\": " << s.items << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t request_ = 0;
};

/// Spans around the owner's trapdoor rounds and each RemoteBackend round.
class ServedPathHooks : public QueryHooks {
 public:
  explicit ServedPathHooks(Tracer& t) : t_(t) {}
  void BeginTrapdoor() override { open_ = t_.Begin("rsse.trapdoor", 0); }
  void EndTrapdoor() override { t_.End(open_); }
  void BeginResolve(const rsse::TokenSet&) override {
    open_ = t_.Begin("server.resolve", 0);
  }
  void EndResolve(const rsse::TokenSet&) override { t_.End(open_); }

 private:
  Tracer& t_;
  size_t open_ = 0;
};

/// Records the token sets of every round of a query, in order.
class RoundRecorder : public QueryHooks {
 public:
  void BeginResolve(const rsse::TokenSet& ts) override { rounds.push_back(ts); }
  std::vector<rsse::TokenSet> rounds;
};

class TracedRun {
 public:
  TracedRun(const Inputs& in, uint64_t seed, double seconds, std::string work)
      : in_(in),
        seed_(seed),
        seconds_(seconds),
        work_(std::move(work)),
        oracle_(in.dataset.records()),
        log_(in.inserts) {}

  int Run() {
    bool ok = Setup() && Stores() && ServedQueries() && LayerQueries() &&
              Updates() && Restart();
    if (!ok) std::fprintf(stderr, "perfbench: traced run failed\n");
    PrintProvenance(*in_.spec, seed_, true, resolved_);
    served_.reset();

    mkdir(".bench_build/spans", 0755);
    const std::string path = ".bench_build/spans/" +
                             std::string(in_.spec->name) + "-seed" +
                             std::to_string(seed_) + ".jsonl";
    if (!tracer_.Write(path)) ok = false;
    std::printf("# spans: %s\n", path.c_str());
    std::printf(
        "# tracing overhead: served query p50 %.4f ms traced vs %.4f ms "
        "untraced (%+.2f%%)\n",
        traced_p50_ms_, untraced_p50_ms_,
        100.0 * (traced_p50_ms_ - untraced_p50_ms_) / untraced_p50_ms_);
    PrintMetrics(ok);
    RemoveTree(work_);
    return ok ? 0 : 1;
  }

 private:
  bool Fail(const char* what, const Status& s = Status::Ok()) {
    std::fprintf(stderr, "perfbench: %s %s\n", what, s.message().c_str());
    return false;
  }

  // One setup through the served path: Build, ExportServerSetup and the
  // InstallServerSetup that ships and acknowledges it.
  bool Setup() {
    data_dir_ = work_ + "/store";
    mkdir(data_dir_.c_str(), 0755);
    served_ = std::make_unique<ServedStore>(data_dir_);
    Status s = served_->Start();
    if (s.ok()) s = client_.Connect("127.0.0.1", served_->port());
    if (!s.ok()) return Fail("server start failed:", s);
    tracer_.NewRequest();
    scheme_ = MakeScheme(*in_.spec, seed_);
    {
      Tracer::Scope span(tracer_, "rsse.build");
      s = scheme_->Build(in_.dataset);
    }
    if (!s.ok()) return Fail("build failed:", s);
    rsse::Result<rsse::ServerSetup> setup = [&] {
      Tracer::Scope span(tracer_, "rsse.export");
      return scheme_->ExportServerSetup();
    }();
    if (!setup.ok()) return Fail("export failed:", setup.status());
    {
      Tracer::Scope span(tracer_, "server.install");
      s = rsse::server::InstallServerSetup(client_, *setup);
    }
    if (!s.ok()) return Fail("install failed:", s);
    setup_ = std::move(*setup);
    rsse::Result<rsse::server::StatsResponse> stats = client_.Stats();
    if (!stats.ok()) return Fail("stats failed:", stats.status());
    base_entries_ = stats->entries;
    resolved_.shards = stats->shards;
    resolved_.snapshot_format = stats->snapshot_format;
    resolved_.mmap = served_->server().mmap_enabled();
    encoder_ = std::make_unique<InsertEncoder>(in_, *scheme_, owner_mu_,
                                               oracle_);
    return true;
  }

  // The shard and persistence layers on the shipped blobs: load, serialize,
  // snapshot, plus the DPRF leaf evaluation that index build runs per value.
  bool Stores() {
    tracer_.NewRequest();
    const std::string snap_dir = work_ + "/snapshot-probe";
    mkdir(snap_dir.c_str(), 0755);
    rsse::Result<std::unique_ptr<rsse::server::StorePersistence>> persist =
        rsse::server::StorePersistence::Open(snap_dir);
    if (!persist.ok()) return Fail("persistence open failed:", persist.status());
    for (const rsse::StoreSetup& st : setup_.stores) {
      rsse::Result<rsse::shard::ShardedEmm> emm = [&] {
        Tracer::Scope span(tracer_, "shard.load");
        return rsse::LoadServableIndex(st.index_blob);
      }();
      if (!emm.ok()) return Fail("load failed:", emm.status());
      {
        Tracer::Scope span(tracer_, "shard.serialize");
        const Bytes blob = emm->Serialize();
        span.set_items(blob.size());
      }
      Status s;
      {
        Tracer::Scope span(tracer_, "server.snapshot");
        s = (*persist)->PersistSnapshot(
            st.store, 1, static_cast<uint8_t>(st.kind),
            rsse::ConstByteSpan(st.index_blob.data(), st.index_blob.size()),
            rsse::ConstByteSpan(st.gate_blob.data(), st.gate_blob.size()));
      }
      if (!s.ok()) return Fail("snapshot failed:", s);
      store_bytes_ += emm->SizeBytes();
      Store& slot = stores_[st.store];
      slot.emm = std::move(*emm);
      if (!st.gate_blob.empty()) {
        rsse::Result<rsse::BloomLabelGate> gate =
            rsse::BloomLabelGate::Deserialize(st.gate_blob);
        if (!gate.ok()) return Fail("gate load failed:", gate.status());
        slot.gate = std::make_unique<rsse::BloomLabelGate>(std::move(*gate));
      }
    }
    setup_ = rsse::ServerSetup{};  // release the shipped blobs

    const rsse::GgmDprf dprf(rsse::crypto::GenerateKey(),
                             in_.dataset.domain().Bits());
    Tracer::Scope span(tracer_, "dprf.eval", kEvalValues);
    size_t sink = 0;
    for (size_t i = 0; i < kEvalValues; ++i) {
      sink += dprf.Eval(in_.dataset.records()[i].attr).size();
    }
    return sink == kEvalValues * rsse::kLabelBytes;
  }

  /// One query over the wire, checked against the oracle. With `hooks`
  /// set, the query (not its check) is a traced "query" span.
  bool ServedQuery(rsse::server::RemoteBackend& backend, size_t q,
                   QueryHooks* hooks, double* ms) {
    const rsse::Range& r = in_.queries[q];
    std::optional<Tracer::Scope> span;
    if (hooks != nullptr) span.emplace(tracer_, "query");
    const double t0 = NowSeconds();
    rsse::Result<QueryOutcome> out =
        RunQuery(*scheme_, owner_mu_, backend, r, hooks);
    *ms = (NowSeconds() - t0) * 1e3;
    span.reset();
    return out.ok() &&
           CheckRange(in_, oracle_, nullptr, 0, 0, r, out->ids);
  }

  // Served-path queries over the same ranges, alternately untraced and
  // traced: the difference of their p50s is the tracing overhead.
  bool ServedQueries() {
    rsse::server::RemoteBackend backend(client_);
    double ms = 0;
    for (int i = 0; i < kWarmupQueries; ++i) {
      if (!ServedQuery(backend, i, nullptr, &ms)) return Fail("warm-up failed");
    }
    std::vector<double> untraced, traced;
    ServedPathHooks hooks(tracer_);
    const double deadline = NowSeconds() + seconds_ * 0.25;
    for (size_t q = 0; NowSeconds() < deadline || q < kLayerQueries; ++q) {
      if (!ServedQuery(backend, q, nullptr, &ms)) {
        return Fail("served query failed");
      }
      untraced.push_back(ms);
      tracer_.NewRequest();
      if (!ServedQuery(backend, q, &hooks, &ms)) {
        return Fail("traced query failed");
      }
      traced.push_back(ms);
    }
    untraced_p50_ms_ = Percentile(untraced, 0.5);
    traced_p50_ms_ = Percentile(traced, 0.5);
    served_queries_ = traced.size();
    return true;
  }

  struct Store {
    rsse::shard::ShardedEmm emm;
    std::unique_ptr<rsse::BloomLabelGate> gate;
  };

  // The in-process layers on the first kLayerQueries ranges: the served
  // search once more (for SearchDone.search_nanos and request bytes), the
  // scheme's LocalBackend, then dprf -> sse -> shard and the crypto calls
  // at the workload's own shapes.
  bool LayerQueries() {
    rsse::server::RemoteBackend backend(client_);
    const rsse::GgmDprf offpath_dprf(rsse::crypto::GenerateKey(),
                                     in_.dataset.domain().Bits());
    rsse::Rng rng(seed_);
    for (size_t q = 0; q < kLayerQueries; ++q) {
      const rsse::Range& r = in_.queries[q];
      tracer_.NewRequest();
      RoundRecorder recorder;
      rsse::Result<QueryOutcome> out =
          RunQuery(*scheme_, owner_mu_, backend, r, &recorder);
      if (!out.ok() || !CheckRange(in_, oracle_, nullptr, 0, 0, r, out->ids)) {
        return Fail("layer query failed");
      }
      delivered_ids_ += out->ids.size();
      exact_ids_ += oracle_.IdsInRange(r.lo, r.hi).size();
      tokens_ += out->tokens;
      token_bytes_ += out->token_bytes;
      rounds_ += out->rounds;
      for (const rsse::TokenSet& ts : recorder.rounds) {
        if (!ServerSearch(ts) || !LocalResolve(ts) || !InProcess(ts)) {
          return false;
        }
      }
      if (InsertsInRanges(*in_.spec)) continue;
      // SRC-i never expands GGM subtrees. The dprf and sse-KDF layers are
      // still timed on this query's range, under a DPRF over the same
      // domain, so that every workload reports them; the summary marks
      // these rows as off the served path.
      std::vector<rsse::Label> leaves;
      std::vector<rsse::sse::KeywordKeys> keys;
      for (const rsse::GgmDprf::Token& t :
           offpath_dprf.Delegate(r, rsse::CoverTechnique::kBrc, rng)) {
        ExpandAndDerive(t, leaves, keys);
      }
    }
    return true;
  }

  bool ServerSearch(const rsse::TokenSet& ts) {
    Tracer::Scope span(tracer_, "server.search");
    if (!ts.ggm.empty()) {
      rsse::server::EmmClient::BatchQuery query;
      query.tokens = ts.ggm;
      rsse::server::SearchBatchRequest req;
      req.queries.emplace_back();
      for (const rsse::GgmDprf::Token& t : ts.ggm) {
        rsse::server::WireToken w;
        w.level = static_cast<uint8_t>(t.level);
        std::copy(t.seed.begin(), t.seed.end(), w.seed.begin());
        req.queries.back().tokens.push_back(w);
      }
      request_bytes_ += req.Encode().size();
      rsse::Result<rsse::server::EmmClient::BatchOutcome> o =
          client_.SearchBatch({query});
      if (!o.ok()) return Fail("SearchBatch failed:", o.status());
      search_nanos_ += o->done.search_nanos;
    }
    if (!ts.keyword.empty()) {
      rsse::server::SearchKeywordRequest req;
      req.store_id = ts.store;
      req.queries.emplace_back();
      for (const rsse::sse::KeywordKeys& k : ts.keyword) {
        rsse::server::WireKeywordToken w;
        w.a = k.label_key;
        w.b = k.value_key;
        req.queries.back().tokens.push_back(std::move(w));
      }
      request_bytes_ += req.Encode().size();
      rsse::Result<rsse::server::EmmClient::KeywordOutcome> o =
          client_.SearchKeyword(req);
      if (!o.ok()) return Fail("SearchKeyword failed:", o.status());
      search_nanos_ += o->done.search_nanos;
    }
    ++search_rounds_;
    return true;
  }

  bool LocalResolve(const rsse::TokenSet& ts) {
    Tracer::Scope span(tracer_, "rsse.local_resolve");
    rsse::Result<rsse::ResolvedIds> got = scheme_->local_backend().Resolve(ts);
    return got.ok() || Fail("local resolve failed:", got.status());
  }

  /// dprf.expand then sse.kdf over one GGM token's leaves.
  void ExpandAndDerive(const rsse::GgmDprf::Token& t,
                       std::vector<rsse::Label>& leaves,
                       std::vector<rsse::sse::KeywordKeys>& keys) {
    {
      Tracer::Scope span(tracer_, "dprf.expand", uint64_t{1} << t.level);
      rsse::GgmDprf::ExpandInto(t, leaves);
    }
    keys.resize(leaves.size());
    Tracer::Scope span(tracer_, "sse.kdf", leaves.size());
    for (size_t i = 0; i < leaves.size(); ++i) {
      rsse::sse::KeysFromSharedSecretInto(
          rsse::ConstByteSpan(leaves[i].data(), leaves[i].size()), keys[i]);
    }
  }

  bool InProcess(const rsse::TokenSet& ts) {
    Tracer::Scope layers(tracer_, "layers");
    auto it = stores_.find(ts.store);
    if (it == stores_.end()) return Fail("token set names an unknown store");
    const Store& store = it->second;
    std::vector<rsse::sse::KeywordKeys> keys;
    if (!ts.ggm.empty()) {
      std::vector<rsse::Label> leaves;
      for (const rsse::GgmDprf::Token& t : ts.ggm) {
        std::vector<rsse::sse::KeywordKeys> token_keys;
        ExpandAndDerive(t, leaves, token_keys);
        leaves_ += leaves.size();
        keys.insert(keys.end(), std::make_move_iterator(token_keys.begin()),
                    std::make_move_iterator(token_keys.end()));
      }
    } else {
      keys = ts.keyword;
    }
    // Constant leaves probe the store without a gate, keyword tokens
    // through the store's gate, as the server does.
    const rsse::sse::LabelGate* gate =
        ts.ggm.empty() ? store.gate.get() : nullptr;
    rsse::sse::SearchStats stats;
    std::vector<size_t> chain(keys.size());
    {
      Tracer::Scope span(tracer_, "shard.search");
      for (size_t i = 0; i < keys.size(); ++i) {
        const size_t before = stats.probes;
        payloads_ += store.emm.Search(keys[i], gate, &stats).size();
        chain[i] = stats.probes - before;
      }
      span.set_items(stats.probes);
    }
    probes_ += stats.probes;
    decrypts_ += stats.decrypts;
    gate_skips_ += stats.skipped_decrypts;
    return Crypto(store, keys, chain);
  }

  // crypto at the workload's own shapes: one label PRF run per token over
  // its chain (rounded up to the 8-label chunk SearchEntries derives), then
  // batch decryption of the entries found, at most 32 per call.
  bool Crypto(const Store& store,
              const std::vector<rsse::sse::KeywordKeys>& keys,
              const std::vector<size_t>& chain) {
    std::vector<std::vector<rsse::Label>> labels(keys.size());
    {
      Tracer::Scope span(tracer_, "crypto.label_prf");
      uint64_t derived = 0;
      for (size_t i = 0; i < keys.size(); ++i) {
        const size_t n = (chain[i] + kLabelChunk - 1) / kLabelChunk *
                         kLabelChunk;
        labels[i].resize(n);
        const rsse::crypto::Prf prf(keys[i].label_key);
        if (n > 0 && !prf.EvalCountersInto(
                         0, n,
                         rsse::ByteSpan(labels[i][0].data(),
                                        n * rsse::kLabelBytes),
                         rsse::kLabelBytes)) {
          return Fail("label PRF failed");
        }
        derived += n;
      }
      span.set_items(derived);
    }
    Tracer::Scope span(tracer_, "crypto.decrypt");
    uint64_t decrypted = 0;
    Bytes cts, plains;
    std::vector<uint32_t> ct_lens, plain_lens;
    for (size_t i = 0; i < keys.size(); ++i) {
      auto flush = [&] {
        if (ct_lens.empty()) return true;
        plains.resize(cts.size());
        plain_lens.resize(ct_lens.size());
        const bool ok = rsse::crypto::Aes128Cbc::DecryptManyInto(
                            keys[i].value_key, cts, ct_lens, plains,
                            plain_lens)
                            .ok();
        decrypted += ct_lens.size();
        cts.clear();
        ct_lens.clear();
        return ok;
      };
      for (const rsse::Label& label : labels[i]) {
        std::optional<rsse::ConstByteSpan> ct = store.emm.Find(label);
        if (!ct.has_value()) break;
        cts.insert(cts.end(), ct->begin(), ct->end());
        ct_lens.push_back(static_cast<uint32_t>(ct->size()));
        if (ct_lens.size() >= kDecryptBatch && !flush()) {
          return Fail("batch decrypt failed");
        }
      }
      if (!flush()) return Fail("batch decrypt failed");
    }
    span.set_items(decrypted);
    return true;
  }

  // The write path: each planned batch through EmmClient::Update, and the
  // same payload through StorePersistence::AppendUpdate in a scratch
  // directory. dynamic_constant keeps one reader running meanwhile, as in
  // its untraced run.
  bool Updates() {
    const std::string wal_dir = work_ + "/wal-probe";
    mkdir(wal_dir.c_str(), 0755);
    rsse::Result<std::unique_ptr<rsse::server::StorePersistence>> persist =
        rsse::server::StorePersistence::Open(wal_dir);
    if (!persist.ok()) return Fail("persistence open failed:", persist.status());
    std::atomic<bool> stop{false};
    std::atomic<bool> reader_ok{true};
    std::thread reader;
    if (in_.spec->kind == Kind::kDynamicConstant) {
      reader = std::thread([&] {
        rsse::server::EmmClient client;
        if (!client.Connect("127.0.0.1", served_->port()).ok()) {
          reader_ok = false;
          return;
        }
        rsse::server::RemoteBackend backend(client);
        for (size_t q = 0; !stop.load(); ++q) {
          const rsse::Range& r = in_.queries[q % in_.queries.size()];
          const size_t acked = log_.acked();
          rsse::Result<QueryOutcome> out =
              RunQuery(*scheme_, owner_mu_, backend, r);
          if (!out.ok() || !CheckRange(in_, oracle_, &log_, acked,
                                       log_.sent(), r, out->ids)) {
            reader_ok = false;
            return;
          }
        }
      });
    }
    bool ok = true;
    for (size_t b = 0; ok && b < kTracedUpdates; ++b) {
      tracer_.NewRequest();
      const size_t first = log_.sent();
      rsse::Result<std::vector<std::pair<rsse::Label, Bytes>>> entries =
          encoder_->Encode(first, kInsertBatch);
      if (!entries.ok()) {
        ok = Fail("encode failed:", entries.status());
        break;
      }
      log_.MarkSent(first + kInsertBatch);
      rsse::Result<rsse::server::UpdateResponse> resp = [&] {
        Tracer::Scope span(tracer_, "server.update_ack", entries->size());
        return client_.Update(*entries);
      }();
      if (!resp.ok()) {
        ok = Fail("update failed:", resp.status());
        break;
      }
      log_.MarkAcked(first + kInsertBatch);
      ++acked_batches_;
      rsse::server::UpdateRequest req;
      req.entries = std::move(*entries);
      const Bytes payload = req.Encode();
      Tracer::Scope span(tracer_, "server.wal_append", req.entries.size());
      Status s = (*persist)->AppendUpdate(
          0, 1, rsse::ConstByteSpan(payload.data(), payload.size()));
      if (!s.ok()) ok = Fail("WAL append failed:", s);
    }
    stop = true;
    if (reader.joinable()) reader.join();
    return ok && (reader_ok.load() || Fail("concurrent reader failed"));
  }

  // One unclean restart: StorePersistence::Recover on the stopped server's
  // directory, then a new server through Listen and its first query.
  bool Restart() {
    client_.Close();
    served_->Stop();
    tracer_.NewRequest();
    {
      rsse::Result<std::unique_ptr<rsse::server::StorePersistence>> persist =
          rsse::server::StorePersistence::Open(data_dir_);
      if (!persist.ok()) return Fail("reopen failed:", persist.status());
      Tracer::Scope span(tracer_, "server.recover");
      rsse::Result<rsse::server::StorePersistence::RecoveryReport> report =
          (*persist)->Recover();
      if (!report.ok()) return Fail("recover failed:", report.status());
    }
    Status s;
    {
      Tracer::Scope span(tracer_, "server.listen");
      served_ = std::make_unique<ServedStore>(data_dir_);
      s = served_->Start();
    }
    if (!s.ok()) return Fail("listen failed:", s);
    if (served_->server().recovery_stats().wal_records_applied !=
        acked_batches_) {
      return Fail("recovery did not replay exactly the acknowledged batches");
    }
    rsse::server::EmmClient client;
    bool good = false;
    {
      Tracer::Scope span(tracer_, "server.first_query");
      s = client.Connect("127.0.0.1", served_->port());
      rsse::server::RemoteBackend backend(client);
      const rsse::Range& r = in_.queries[0];
      rsse::Result<QueryOutcome> out =
          s.ok() ? RunQuery(*scheme_, owner_mu_, backend, r)
                 : rsse::Result<QueryOutcome>(s);
      good = out.ok() && CheckRange(in_, oracle_, &log_, log_.acked(),
                                    log_.acked(), r, out->ids);
    }
    rsse::Result<rsse::server::StatsResponse> stats = client.Stats();
    return (good && stats.ok() &&
            stats->entries == base_entries_ + log_.acked()) ||
           Fail("first query after restart failed");
  }

  void PrintMetrics(bool ok) {
    const auto per = [](double total, double n) { return n > 0 ? total / n : 0; };
    const double q = static_cast<double>(kLayerQueries);
    const Tracer::Totals expand = tracer_.Sum("dprf.expand");
    const Tracer::Totals kdf = tracer_.Sum("sse.kdf");
    const Tracer::Totals prf = tracer_.Sum("crypto.label_prf");
    const Tracer::Totals dec = tracer_.Sum("crypto.decrypt");
    const Tracer::Totals search = tracer_.Sum("shard.search");
    const Tracer::Totals resolve = tracer_.Sum("server.resolve");
    const Tracer::Totals trapdoor = tracer_.Sum("rsse.trapdoor");
    const double records = static_cast<double>(in_.dataset.size());

    Report r;
    r.Add("rsse.build_s", tracer_.Sum("rsse.build").ns / 1e9, "s");
    r.Add("rsse.export_ms", tracer_.Sum("rsse.export").ns / 1e6, "ms");
    r.Add("rsse.trapdoor_us", per(trapdoor.ns / 1e3, served_queries_), "us");
    r.Add("rsse.local_resolve_ms",
          per(tracer_.Sum("rsse.local_resolve").ns / 1e6, q), "ms");
    r.Add("rsse.tokens_per_query", per(tokens_, q), "count");
    r.Add("rsse.token_bytes_per_query", per(token_bytes_, q), "B");
    r.Add("rsse.rounds_per_query", per(rounds_, q), "count");
    r.Add("rsse.candidates_per_result", per(delivered_ids_, exact_ids_),
          "ratio");
    r.Add("dprf.expand_ns_per_leaf", per(expand.ns, expand.items), "ns");
    r.Add("dprf.leaves_per_query", per(leaves_, q), "count");
    r.Add("dprf.eval_us", per(tracer_.Sum("dprf.eval").ns / 1e3, kEvalValues),
          "us");
    r.Add("sse.kdf_ns_per_leaf", per(kdf.ns, kdf.items), "ns");
    r.Add("sse.probes_per_query", per(probes_, q), "count");
    r.Add("sse.decrypts_per_query", per(decrypts_, q), "count");
    r.Add("sse.gate_skips_per_query", per(gate_skips_, q), "count");
    r.Add("sse.payloads_per_decrypt", per(payloads_, decrypts_), "ratio");
    r.Add("crypto.label_prf_ns", per(prf.ns, prf.items), "ns");
    r.Add("crypto.decrypt_ns_per_entry", per(dec.ns, dec.items), "ns");
    r.Add("shard.search_ns_per_probe", per(search.ns, search.items), "ns");
    r.Add("shard.serialize_ms", tracer_.Sum("shard.serialize").ns / 1e6, "ms");
    r.Add("shard.load_ms", tracer_.Sum("shard.load").ns / 1e6, "ms");
    r.Add("shard.bytes_per_record", per(store_bytes_, records), "B");
    r.Add("server.resolve_ms", per(resolve.ns / 1e6, resolve.count), "ms");
    r.Add("server.search_ms", per(search_nanos_ / 1e6, search_rounds_), "ms");
    r.Add("server.request_bytes_per_query", per(request_bytes_, q), "B");
    r.Add("server.install_ms", tracer_.Sum("server.install").ns / 1e6, "ms");
    r.Add("server.snapshot_ms", tracer_.Sum("server.snapshot").ns / 1e6, "ms");
    const Tracer::Totals ack = tracer_.Sum("server.update_ack");
    const Tracer::Totals wal = tracer_.Sum("server.wal_append");
    r.Add("server.update_ack_ms", per(ack.ns / 1e6, ack.count), "ms");
    r.Add("server.wal_append_us", per(wal.ns / 1e3, wal.count), "us");
    r.Add("server.listen_ms", tracer_.Sum("server.listen").ns / 1e6, "ms");
    r.Add("server.first_query_ms", tracer_.Sum("server.first_query").ns / 1e6,
          "ms");
    r.Add("server.recover_ms", tracer_.Sum("server.recover").ns / 1e6, "ms");
    r.Add("process.peak_rss_mb", PeakRssMb(), "MB");
    r.Add("trace.overhead_us", (traced_p50_ms_ - untraced_p50_ms_) * 1e3,
          "us");
    const size_t ops = 1 + served_queries_ * 2 + kWarmupQueries +
                       kLayerQueries + acked_batches_ + 1;
    r.Print(ok, ops, ok ? 0 : 1);
  }

  const Inputs& in_;
  const uint64_t seed_;
  const double seconds_;
  const std::string work_;
  const RangeOracle oracle_;
  InsertLog log_;
  std::mutex owner_mu_;
  Tracer tracer_;
  std::unique_ptr<rsse::RangeScheme> scheme_;
  std::unique_ptr<ServedStore> served_;
  std::unique_ptr<InsertEncoder> encoder_;
  rsse::server::EmmClient client_;
  rsse::ServerSetup setup_;
  std::map<uint32_t, Store> stores_;
  std::string data_dir_;
  ResolvedSettings resolved_;
  uint64_t base_entries_ = 0;
  size_t acked_batches_ = 0;
  double untraced_p50_ms_ = 0, traced_p50_ms_ = 0;
  size_t served_queries_ = 0;
  double store_bytes_ = 0;
  double delivered_ids_ = 0, exact_ids_ = 0;
  double tokens_ = 0, token_bytes_ = 0, rounds_ = 0;
  double leaves_ = 0, probes_ = 0, decrypts_ = 0, gate_skips_ = 0;
  double payloads_ = 0;
  double search_nanos_ = 0, search_rounds_ = 0, request_bytes_ = 0;
};

}  // namespace

int RunTraced(const Inputs& in, uint64_t seed, double seconds,
              const std::string& work) {
  TracedRun run(in, seed, seconds, work);
  return run.Run();
}

}  // namespace perfbench
