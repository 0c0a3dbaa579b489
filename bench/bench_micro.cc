// Micro benchmarks (google-benchmark) for the crypto and range-covering
// substrates: the per-operation costs that dominate the macro results of
// Figures 5-8 (PRF/DPRF evaluations per retrieved tuple, GGM expansions,
// cover computations).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <optional>

#include "common/rng.h"
#include "cover/brc.h"
#include "cover/tdag.h"
#include "cover/urc.h"
#include "crypto/aes.h"
#include "crypto/hmac_prf.h"
#include "crypto/prg.h"
#include "crypto/random.h"
#include "crypto/sha.h"
#include "dprf/ggm_dprf.h"
#include "rsse/bloom_gate.h"
#include "rsse/leaf_resolver.h"
#include "rsse/local_backend.h"
#include "server/wire.h"
#include "shard/sharded_emm.h"
#include "sse/encrypted_multimap.h"

namespace rsse {
namespace {

void BM_Sha1(benchmark::State& state) {
  Bytes data(64, 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha1(data));
}
BENCHMARK(BM_Sha1);

void BM_HmacSha512OneShot(benchmark::State& state) {
  Bytes key = crypto::GenerateKey();
  Bytes data(32, 0xcd);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::HmacSha512(key, data));
}
BENCHMARK(BM_HmacSha512OneShot);

void BM_PrfEvalPrekeyed(benchmark::State& state) {
  crypto::Prf prf(crypto::GenerateKey());
  Bytes data(32, 0xcd);
  for (auto _ : state) benchmark::DoNotOptimize(prf.Eval(data));
}
BENCHMARK(BM_PrfEvalPrekeyed);

void BM_GgmExpandOneLevel(benchmark::State& state) {
  Bytes seed = crypto::GenerateKey();
  for (auto _ : state) benchmark::DoNotOptimize(crypto::GgmPrg::Expand(seed));
}
BENCHMARK(BM_GgmExpandOneLevel);

void BM_GgmExpandOneLevelAes(benchmark::State& state) {
  const auto prior = crypto::GgmPrg::backend();
  crypto::GgmPrg::SetBackend(crypto::GgmPrg::Backend::kAes);
  uint8_t seed[16] = {0x42};
  uint8_t left[16];
  uint8_t right[16];
  for (auto _ : state) {
    crypto::GgmPrg::ExpandInto(seed, left, right);
    benchmark::DoNotOptimize(left);
  }
  crypto::GgmPrg::SetBackend(prior);
}
BENCHMARK(BM_GgmExpandOneLevelAes);

void BM_AesEncrypt(benchmark::State& state) {
  Bytes key = crypto::GenerateKey();
  Bytes plaintext(static_cast<size_t>(state.range(0)), 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Aes128Cbc::Encrypt(key, plaintext));
  }
}
BENCHMARK(BM_AesEncrypt)->Arg(9)->Arg(64)->Arg(1024);

void BM_AesDecrypt(benchmark::State& state) {
  Bytes key = crypto::GenerateKey();
  Bytes ct = crypto::Aes128Cbc::Encrypt(key, Bytes(64, 0x11)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Aes128Cbc::Decrypt(key, ct));
  }
}
BENCHMARK(BM_AesDecrypt);

void BM_PrfEvalCounters(benchmark::State& state) {
  // Fused counter-label derivation (the index-build/search label path):
  // items/s is labels per second; compare against BM_PrfEvalPrekeyed for
  // the per-call scalar baseline.
  crypto::Prf prf(crypto::GenerateKey());
  const size_t count = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> out(count * 16);
  for (auto _ : state) {
    prf.EvalCountersInto(0, count, ByteSpan(out.data(), out.size()), 16);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrfEvalCounters)->Arg(16)->Arg(256);

void BM_AesEncryptBatch(benchmark::State& state) {
  // Arena-at-a-time value encryption: {entries, payload bytes}. Compare
  // items/s against BM_AesEncrypt at the same payload size for the
  // per-entry EVP-round baseline.
  Bytes key = crypto::GenerateKey();
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t len = static_cast<uint32_t>(state.range(1));
  std::vector<uint32_t> lens(n, len);
  Bytes plaintexts(n * len, 0x11);
  Bytes out(n * crypto::Aes128Cbc::CiphertextSize(len));
  size_t written = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Aes128Cbc::EncryptManyInto(
        key, plaintexts, lens, out, &written));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesEncryptBatch)->Args({16, 9})->Args({512, 9})->Args({512, 64});

void BM_AesDecryptBatch(benchmark::State& state) {
  // Batched covering-node decryption: one ECB pass per batch of gathered
  // counter-probe hits. Baseline: BM_AesDecrypt (per-entry EVP round).
  Bytes key = crypto::GenerateKey();
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t len = 9;  // EncodeIdPayload + marker
  std::vector<uint32_t> lens(n, len);
  const uint32_t ct_size =
      static_cast<uint32_t>(crypto::Aes128Cbc::CiphertextSize(len));
  Bytes plaintexts(n * len, 0x11);
  Bytes cts(n * ct_size);
  size_t written = 0;
  if (!crypto::Aes128Cbc::EncryptManyInto(key, plaintexts, lens, cts,
                                          &written)
           .ok()) {
    state.SkipWithError("batch encryption failed");
    return;
  }
  std::vector<uint32_t> ct_lens(n, ct_size);
  Bytes plains(n * (ct_size - 16));
  std::vector<uint32_t> plain_lens(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Aes128Cbc::DecryptManyInto(
        key, cts, ct_lens, plains, plain_lens));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesDecryptBatch)->Arg(32)->Arg(512);

void BM_BrcCover(benchmark::State& state) {
  const int bits = 27;
  Rng rng(1);
  uint64_t lo = rng.Uniform(0, (uint64_t{1} << bits) - state.range(0) - 1);
  Range r{lo, lo + static_cast<uint64_t>(state.range(0)) - 1};
  for (auto _ : state) benchmark::DoNotOptimize(BestRangeCover(r, bits));
}
BENCHMARK(BM_BrcCover)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_UrcCover(benchmark::State& state) {
  const int bits = 27;
  Rng rng(1);
  uint64_t lo = rng.Uniform(0, (uint64_t{1} << bits) - state.range(0) - 1);
  Range r{lo, lo + static_cast<uint64_t>(state.range(0)) - 1};
  for (auto _ : state) benchmark::DoNotOptimize(UniformRangeCover(r, bits));
}
BENCHMARK(BM_UrcCover)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_TdagSingleRangeCover(benchmark::State& state) {
  Tdag tdag(27);
  Range r{123456, 123456 + 99999};
  for (auto _ : state) benchmark::DoNotOptimize(tdag.SingleRangeCover(r));
}
BENCHMARK(BM_TdagSingleRangeCover);

void BM_TdagCoverValue(benchmark::State& state) {
  Tdag tdag(27);
  for (auto _ : state) benchmark::DoNotOptimize(tdag.Cover(998877));
}
BENCHMARK(BM_TdagCoverValue);

void BM_DprfDelegate(benchmark::State& state) {
  GgmDprf dprf(crypto::GenerateKey(), 27);
  Rng rng(3);
  Range r{5000, 5000 + static_cast<uint64_t>(state.range(0)) - 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dprf.Delegate(r, CoverTechnique::kBrc, rng));
  }
}
BENCHMARK(BM_DprfDelegate)->Arg(100)->Arg(10000);

void BM_DprfExpandSubtree(benchmark::State& state) {
  GgmDprf dprf(crypto::GenerateKey(), 27);
  GgmDprf::Token token{dprf.NodeSeed(DyadicNode{
                           static_cast<int>(state.range(0)), 3}),
                       static_cast<int>(state.range(0))};
  for (auto _ : state) benchmark::DoNotOptimize(GgmDprf::Expand(token));
  state.SetItemsProcessed(state.iterations() * (int64_t{1} << state.range(0)));
}
BENCHMARK(BM_DprfExpandSubtree)->Arg(4)->Arg(8)->Arg(12);

void BM_DprfExpandSubtreeAes(benchmark::State& state) {
  // Same expansion under the AES-NI GGM backend (RSSE_GGM_PRG=aes).
  const auto prior = crypto::GgmPrg::backend();
  crypto::GgmPrg::SetBackend(crypto::GgmPrg::Backend::kAes);
  GgmDprf dprf(crypto::GenerateKey(), 27);
  GgmDprf::Token token{dprf.NodeSeed(DyadicNode{
                           static_cast<int>(state.range(0)), 3}),
                       static_cast<int>(state.range(0))};
  std::vector<Label> leaves;
  for (auto _ : state) {
    GgmDprf::ExpandInto(token, leaves);
    benchmark::DoNotOptimize(leaves.data());
  }
  crypto::GgmPrg::SetBackend(prior);
  state.SetItemsProcessed(state.iterations() * (int64_t{1} << state.range(0)));
}
BENCHMARK(BM_DprfExpandSubtreeAes)->Arg(4)->Arg(8)->Arg(12);

/// The paper's flat Π_bas dictionary: one shard built by one thread, the
/// in-place build and search path of `ShardedEmm`.
shard::ShardOptions FlatStore() {
  shard::ShardOptions options;
  options.shards = 1;
  options.threads = 1;
  return options;
}

void BM_EmmBuild(benchmark::State& state) {
  sse::PlainMultimap postings;
  const int64_t keywords = state.range(0);
  const int64_t per_keyword = 16;
  for (int64_t w = 0; w < keywords; ++w) {
    Bytes keyword;
    AppendUint64(keyword, static_cast<uint64_t>(w));
    for (int64_t i = 0; i < per_keyword; ++i) {
      postings[keyword].push_back(
          sse::EncodeIdPayload(static_cast<uint64_t>(w * 1000 + i)));
    }
  }
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shard::ShardedEmm::Build(postings, deriver, FlatStore()));
  }
  state.SetItemsProcessed(state.iterations() * keywords * per_keyword);
}
BENCHMARK(BM_EmmBuild)->Arg(64)->Arg(512);

sse::PlainMultimap MakeBuildPostings(int64_t keywords, int64_t per_keyword) {
  sse::PlainMultimap postings;
  for (int64_t w = 0; w < keywords; ++w) {
    Bytes keyword;
    AppendUint64(keyword, static_cast<uint64_t>(w));
    for (int64_t i = 0; i < per_keyword; ++i) {
      postings[keyword].push_back(
          sse::EncodeIdPayload(static_cast<uint64_t>(w * 1000 + i)));
    }
  }
  return postings;
}

void BM_ShardedEmmBuild(benchmark::State& state) {
  // Args: {shards, build threads}. (1, 1) is the paper-faithful flat
  // build; (1, 4) adds parallel encryption but funnels through the single
  // merge; (4, 4) additionally parallelizes the merge across shards — the
  // sharding win on multi-core builds.
  sse::PlainMultimap postings = MakeBuildPostings(512, 16);
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  shard::ShardOptions options;
  options.shards = static_cast<int>(state.range(0));
  options.threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shard::ShardedEmm::Build(postings, deriver, options));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 16);
}
// Wall-clock (UseRealTime) so the multi-worker configurations are scored
// by elapsed time, not the mostly-idle main thread; process CPU alongside
// shows the parallel efficiency. On a single-core machine the (4, 4) row
// matches (1, 1) — the speedup needs the cores the shards were built for.
BENCHMARK(BM_ShardedEmmBuild)
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({4, 4})
    ->Args({8, 8})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_ShardedEmmLoad(benchmark::State& state) {
  // Deserialization of a 4-shard blob with 1 vs 4 loader threads: the
  // per-shard serialization exists exactly so this scales.
  sse::PlainMultimap postings = MakeBuildPostings(512, 16);
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  shard::ShardOptions options;
  options.shards = 4;
  options.threads = 4;
  auto store = shard::ShardedEmm::Build(postings, deriver, options);
  Bytes blob = store->Serialize();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(shard::ShardedEmm::Deserialize(blob, threads));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 16);
}
BENCHMARK(BM_ShardedEmmLoad)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_ShardedEmmSearch(benchmark::State& state) {
  // Single-token search routed across shards; the routing adds one modulo
  // over the flat map's probe, so this should track BM_EmmSearch.
  sse::PlainMultimap postings;
  for (int64_t i = 0; i < state.range(0); ++i) {
    postings[ToBytes("w")].push_back(sse::EncodeIdPayload(i));
  }
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  shard::ShardOptions options;
  options.shards = 4;
  auto store = shard::ShardedEmm::Build(postings, deriver, options);
  sse::KeywordKeys token = deriver.Derive(ToBytes("w"));
  for (auto _ : state) benchmark::DoNotOptimize(store->Search(token));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShardedEmmSearch)->Arg(1000)->Arg(10000);

void BM_EmmSearch(benchmark::State& state) {
  sse::PlainMultimap postings;
  for (int64_t i = 0; i < state.range(0); ++i) {
    postings[ToBytes("w")].push_back(sse::EncodeIdPayload(i));
  }
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  auto emm = shard::ShardedEmm::Build(postings, deriver, FlatStore());
  sse::KeywordKeys token = deriver.Derive(ToBytes("w"));
  for (auto _ : state) benchmark::DoNotOptimize(emm->Search(token));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EmmSearch)->Arg(10)->Arg(1000)->Arg(10000);

void BM_KeywordTokenSearch(benchmark::State& state) {
  // Server-side keyword-token resolve path: one LocalBackend::Resolve
  // over a batch of per-keyword tokens against the sharded dictionary —
  // exactly what the wire's SearchKeyword handler and every TDAG scheme's
  // local search run per query. Arg = tokens per batch (16 postings per
  // keyword); items/s counts retrieved postings.
  constexpr int64_t kKeywords = 256;
  constexpr int64_t kPerKeyword = 16;
  sse::PlainMultimap postings = MakeBuildPostings(kKeywords, kPerKeyword);
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  shard::ShardOptions options;
  options.shards = 4;
  auto store = shard::ShardedEmm::Build(postings, deriver, options);
  LocalBackend backend;
  backend.AddEmmStore(kPrimaryStore, &store.value(), nullptr);
  TokenSet tokens;
  for (int64_t w = 0; w < state.range(0); ++w) {
    Bytes keyword;
    AppendUint64(keyword, static_cast<uint64_t>(w % kKeywords));
    tokens.keyword.push_back(deriver.Derive(keyword));
  }
  for (auto _ : state) {
    auto resolved = backend.Resolve(tokens);
    benchmark::DoNotOptimize(resolved);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          kPerKeyword);
}
BENCHMARK(BM_KeywordTokenSearch)->Arg(16)->Arg(256);

void BM_ServeLeaves(benchmark::State& state) {
  // The served Constant shape: one 2^L-leaf GGM token resolved through the
  // shared leaf resolver (expand, leaf KDF, K1 setup + label 0, probe,
  // chain and decrypt for the hits) over a store where every 10th value
  // of a 2^16 domain holds one entry. items/s counts leaves, so ns/leaf
  // reads directly against BM_DprfExpandSubtree (expansion alone) and the
  // served per-leaf cost.
  constexpr int kBits = 16;
  const int level = static_cast<int>(state.range(0));
  GgmDprf dprf(crypto::GenerateKey(), kBits);
  class DprfDeriver : public sse::KeywordKeyDeriver {
   public:
    explicit DprfDeriver(const GgmDprf& dprf) : dprf_(dprf) {}
    sse::KeywordKeys Derive(const Bytes& w) const override {
      return sse::KeysFromSharedSecret(dprf_.Eval(ReadUint64(w, 0)));
    }

   private:
    const GgmDprf& dprf_;
  } deriver(dprf);
  sse::PlainMultimap postings;
  for (uint64_t v = 0; v < (uint64_t{1} << kBits); v += 10) {
    Bytes keyword;
    AppendUint64(keyword, v);
    postings[keyword].push_back(sse::EncodeIdPayload(v));
  }
  shard::ShardOptions options;
  options.shards = 1;  // the served default
  auto store = shard::ShardedEmm::Build(postings, deriver, options);
  GgmDprf::Token token{dprf.NodeSeed(DyadicNode{level, 3}), level};
  class CountSink : public PayloadSink {
   public:
    void Add(ConstByteSpan payload) override { bytes += payload.size(); }
    size_t bytes = 0;
  } sink;
  LeafResolverScratch scratch;
  sse::SearchStats stats;
  for (auto _ : state) {
    ResolveGgmToken(token, *store, nullptr, scratch, sink, &stats);
    benchmark::DoNotOptimize(sink.bytes);
  }
  state.SetItemsProcessed(state.iterations() * (int64_t{1} << level));
}
BENCHMARK(BM_ServeLeaves)->Arg(4)->Arg(8)->Arg(12);

void BM_ServeChain(benchmark::State& state) {
  // The served SRC-i shape: one long keyword chain (10,001 real entries,
  // padding quantum 4, behind a 1% Bloom gate) searched through
  // `sse::SearchEntries` into the server's per-query `PayloadArena`, in a
  // store of about 1M entries, far past L2, so most probes miss the
  // cache twice (slot, then value) as they do when serving. items/s
  // counts probes, so ns/probe reads against the label PRF
  // (BM_PrfEvalCounters) and the served per-probe cost. The store is
  // built once and shared by every run.
  constexpr uint64_t kChainEntries = 10001;
  constexpr uint64_t kFillerKeywords = 1000;
  constexpr uint64_t kFillerEntries = 1000;
  struct Fixture {
    sse::PrfKeyDeriver deriver{crypto::GenerateKey()};
    shard::ShardedEmm store;
    std::optional<BloomLabelGate> gate;
    sse::KeywordKeys token;
  };
  static const Fixture fixture = [] {
    Fixture f;
    sse::PlainMultimap postings;
    for (uint64_t w = 0; w <= kFillerKeywords; ++w) {
      Bytes keyword;
      AppendUint64(keyword, w);
      const uint64_t n = w == 0 ? kChainEntries : kFillerEntries;
      std::vector<Bytes>& list = postings[keyword];
      for (uint64_t i = 0; i < n; ++i) {
        list.push_back(sse::EncodeIdPayload(w << 32 | i));
      }
    }
    shard::ShardOptions options;
    options.shards = 1;  // the served default
    options.threads = 4;
    options.padding.quantum = 4;
    auto built = shard::ShardedEmm::Build(postings, f.deriver, options);
    if (!built.ok()) std::abort();
    // Installed the way the server installs a Setup blob: the load lays
    // values out in slot order, so the chain's values are scattered
    // across the arena as they are when serving.
    auto store = shard::ShardedEmm::Deserialize(built->Serialize());
    if (!store.ok()) std::abort();
    f.store = std::move(store).value();
    f.gate.emplace(kChainEntries + kFillerKeywords * kFillerEntries, 0.01,
                   /*salt=*/1);
    if (!f.gate->Populate(postings, f.deriver).ok()) std::abort();
    f.token = f.deriver.Derive(Bytes(8, 0));  // keyword 0, the chain
    return f;
  }();
  size_t probes = 0;
  for (auto _ : state) {
    server::PayloadArena arena;
    sse::SearchStats stats;
    sse::SearchEntries(
        fixture.token, fixture.store,
        [&arena](ConstByteSpan payload) { arena.Add(payload); },
        &*fixture.gate, &stats);
    if (arena.size() != kChainEntries) {
      state.SkipWithError("chain search lost payloads");
      break;
    }
    probes = stats.probes;
    benchmark::DoNotOptimize(arena);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(probes));
}
BENCHMARK(BM_ServeChain);

}  // namespace
}  // namespace rsse

BENCHMARK_MAIN();
