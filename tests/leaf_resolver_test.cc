#include "rsse/leaf_resolver.h"

#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/hmac_prf.h"
#include "crypto/prg.h"
#include "crypto/sha512_x4.h"
#include "dprf/ggm_dprf.h"
#include "prg_backend_guard.h"
#include "sse/encrypted_multimap.h"
#include "sse/keyword_keys.h"

// The batched leaf resolver against a scalar reference built only from the
// public per-leaf calls (GgmPrg::ExpandInto per node, KeysFromSharedSecret,
// Prf::EvalInto per counter, Aes128Cbc::Decrypt per entry). ctest runs this
// binary three times — default, RSSE_NO_AVX512=1 and RSSE_NO_AVX2=1 — so the
// 8-lane, 4-lane and scalar kernel tiers are each pinned on an AVX-512 host.

namespace rsse {
namespace {

constexpr int kBits = 12;

Bytes FixedBytes(uint8_t fill) {
  Bytes b(crypto::kLambdaBytes);
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<uint8_t>(fill + i);
  return b;
}

Bytes Counter(uint64_t c) {
  Bytes b;
  AppendUint64(b, c);
  return b;
}

/// Returns fixed keys for every keyword (places entries under chosen keys).
class FixedDeriver : public sse::KeywordKeyDeriver {
 public:
  explicit FixedDeriver(sse::KeywordKeys keys) : keys_(std::move(keys)) {}
  sse::KeywordKeys Derive(const Bytes&) const override { return keys_; }

 private:
  sse::KeywordKeys keys_;
};

/// Rejects a deterministic half of all labels: exercises gate skips on
/// real and dummy entries alike (the resolver must skip exactly what the
/// per-leaf search skips).
class HalfGate : public sse::LabelGate {
 public:
  bool MayContainReal(const Label& label) const override {
    return (label[3] & 1) == 0;
  }
};

class CollectSink : public PayloadSink {
 public:
  void Add(ConstByteSpan payload) override {
    payloads.emplace_back(payload.begin(), payload.end());
  }
  std::vector<Bytes> payloads;
};

/// Value 77 holds two good entries followed by three encrypted under the
/// wrong value key: its chain must stop at the first failed decryption.
constexpr uint64_t kWrongTokenValue = 77;

/// Entries per domain value: none for most, one for every 7th, a long
/// chain (40 > the 32-entry decrypt batch) for a few, and two payloads
/// padded with two dummies for every 13th.
size_t EntriesFor(uint64_t v, uint64_t* pad_quantum) {
  *pad_quantum = 0;
  if (v % 97 == 5) return 40;
  if (v % 13 == 3) {
    *pad_quantum = 4;
    return 2;
  }
  return v % 7 == 0 ? 1 : 0;
}

/// A Constant-style store over a 2^kBits domain under the current PRG
/// backend: value v's entries live under the keys of its GGM leaf.
shard::ShardedEmm BuildStore(const GgmDprf& dprf) {
  shard::ShardedEmm store = shard::ShardedEmm::WithShards(3);
  sse::EmmBuildScratch scratch;
  auto insert = [&store](const Label& label, ConstByteSpan value) {
    store.Insert(label, value);
  };
  for (uint64_t v = 0; v < (uint64_t{1} << kBits); ++v) {
    const sse::KeywordKeys keys = sse::KeysFromSharedSecret(dprf.Eval(v));
    uint64_t pad = 0;
    size_t n = EntriesFor(v, &pad);
    if (v == kWrongTokenValue) n = 2;
    if (n == 0) continue;
    std::vector<Bytes> payloads;
    for (size_t i = 0; i < n; ++i) {
      payloads.push_back(sse::EncodeIdPayload(v * 1000 + i));
    }
    std::vector<std::pair<Label, Bytes>> entries;
    const FixedDeriver deriver(keys);
    EXPECT_TRUE(sse::EncryptKeywordEntries(
                    Bytes{}, payloads, deriver, pad, scratch,
                    [&entries](const Label& label, size_t len) {
                      entries.emplace_back(label, Bytes(len));
                      return ByteSpan(entries.back().second.data(), len);
                    })
                    .ok());
    for (const auto& [label, value] : entries) {
      insert(label, ConstByteSpan(value.data(), value.size()));
    }
    if (v != kWrongTokenValue) continue;
    // Counters 2..4: right labels, ciphertexts under a foreign value key
    // with fixed IVs (deterministic, and checked below to fail padding).
    const crypto::Prf label_prf(keys.label_key);
    const Bytes wrong_key = FixedBytes(0xA0);
    for (uint64_t c = 2; c < 5; ++c) {
      Label label;
      EXPECT_TRUE(label_prf.EvalInto(Counter(c), label));
      Bytes plain = {sse::kEmmRealMarker};
      Append(plain, sse::EncodeIdPayload(v * 1000 + c));
      const Result<Bytes> ct = crypto::Aes128Cbc::EncryptWithIv(
          wrong_key, FixedBytes(static_cast<uint8_t>(0x10 * c)), plain);
      EXPECT_TRUE(ct.ok());
      EXPECT_FALSE(crypto::Aes128Cbc::Decrypt(keys.value_key, *ct).ok());
      insert(label, ConstByteSpan(ct->data(), ct->size()));
    }
  }
  return store;
}

/// Scalar reference: the served semantics of one GGM token, written out
/// with the per-leaf public calls and no batching anywhere.
std::vector<Bytes> ReferenceResolve(const GgmDprf::Token& token,
                                    const shard::ShardedEmm& emm,
                                    const sse::LabelGate* gate,
                                    sse::SearchStats* stats) {
  std::vector<Bytes> level = {token.seed};
  for (int l = 0; l < token.level; ++l) {
    std::vector<Bytes> next;
    for (const Bytes& seed : level) {
      Bytes left(crypto::kLambdaBytes);
      Bytes right(crypto::kLambdaBytes);
      crypto::GgmPrg::ExpandInto(seed.data(), left.data(), right.data());
      next.push_back(std::move(left));
      next.push_back(std::move(right));
    }
    level = std::move(next);
  }
  std::vector<Bytes> out;
  for (const Bytes& leaf : level) {
    const sse::KeywordKeys keys = sse::KeysFromSharedSecret(leaf);
    const crypto::Prf prf(keys.label_key);
    std::vector<Bytes> pending;
    // Decrypts the gathered entries in order; false on a failed one (the
    // payloads before it are kept, the chain stops).
    auto flush = [&]() {
      stats->decrypts += pending.size();
      for (const Bytes& ct : pending) {
        const Result<Bytes> plain = crypto::Aes128Cbc::Decrypt(keys.value_key,
                                                               ct);
        if (!plain.ok() || plain->empty()) return false;
        if ((*plain)[0] != sse::kEmmDummyMarker) {
          out.emplace_back(plain->begin() + 1, plain->end());
        }
      }
      pending.clear();
      return true;
    };
    for (uint64_t c = 0;; ++c) {
      Label label;
      EXPECT_TRUE(prf.EvalInto(Counter(c), label));
      ++stats->probes;
      const std::optional<ConstByteSpan> ct = emm.Find(label);
      if (!ct.has_value()) {
        flush();
        break;
      }
      if (gate != nullptr && !gate->MayContainReal(label)) {
        ++stats->skipped_decrypts;
        continue;
      }
      pending.emplace_back(ct->begin(), ct->end());
      if (pending.size() == 32 && !flush()) break;
    }
  }
  return out;
}

void ExpectSameStats(const sse::SearchStats& got, const sse::SearchStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.probes, want.probes) << where;
  EXPECT_EQ(got.decrypts, want.decrypts) << where;
  EXPECT_EQ(got.skipped_decrypts, want.skipped_decrypts) << where;
}

TEST(LeafResolverTest, KernelTierMatchesEnvironment) {
  // Each ctest registration must really run the tier it is named for.
  const char* no_avx2 = std::getenv("RSSE_NO_AVX2");
  const char* no_avx512 = std::getenv("RSSE_NO_AVX512");
  const size_t lanes = crypto::HmacSha512CounterLanes();
  if (no_avx2 != nullptr && std::strcmp(no_avx2, "1") == 0) {
    EXPECT_EQ(lanes, 0u);
  } else if (no_avx512 != nullptr && std::strcmp(no_avx512, "1") == 0) {
    EXPECT_LE(lanes, 4u);
  }
  RecordProperty("lanes", static_cast<int>(lanes));
}

TEST(LeafResolverTest, LaneKernelsMatchScalarHmac) {
  // Every count 0..19 hits whole vector groups plus a scalar tail.
  const Bytes key = FixedBytes(0x42);
  const crypto::HmacSha512Midstates mid =
      crypto::HmacSha512KeyMidstates(key.data(), key.size());
  const crypto::Prf prf(key);
  for (size_t count = 0; count < 20; ++count) {
    std::vector<uint8_t> keys(count * 16);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<uint8_t>(i * 31 + count);
    }
    // Counters under one key (full 64-byte output).
    std::vector<uint8_t> counters(count * 64);
    crypto::HmacSha512Counters(mid, 1000, count, counters.data(), 64, 64);
    // 16-byte messages under one key, 32-byte output (the GGM PRG shape).
    std::vector<uint8_t> msg16(count * 32);
    crypto::HmacSha512Msg16(mid, keys.data(), count, msg16.data(), 32, 32);
    // One key per lane: midstates and F(k_i, 0).
    std::vector<crypto::HmacSha512Midstates> mids(count);
    std::vector<uint8_t> label0(count * 16);
    crypto::HmacSha512Key16Setup(keys.data(), 16, count, mids.data(),
                                 label0.data(), 16, 16);
    for (size_t i = 0; i < count; ++i) {
      uint8_t want[64];
      ASSERT_TRUE(prf.EvalInto(Counter(1000 + i), want));
      EXPECT_EQ(0, std::memcmp(want, &counters[i * 64], 64)) << count;
      ASSERT_TRUE(prf.EvalInto(ConstByteSpan(&keys[i * 16], 16), want));
      EXPECT_EQ(0, std::memcmp(want, &msg16[i * 32], 32)) << count;
      const crypto::Prf lane_prf(Bytes(&keys[i * 16], &keys[i * 16] + 16));
      ASSERT_TRUE(lane_prf.EvalInto(Counter(0), want));
      EXPECT_EQ(0, std::memcmp(want, &label0[i * 16], 16)) << count;
      // The lane's midstates continue the chain like the key's own.
      uint8_t next[16];
      crypto::HmacSha512Counters(mids[i], 7, 1, next, 16, 16);
      ASSERT_TRUE(lane_prf.EvalInto(Counter(7), want));
      EXPECT_EQ(0, std::memcmp(want, next, 16)) << count;
    }
  }
}

class LeafResolverBackendTest
    : public ::testing::TestWithParam<crypto::GgmPrg::Backend> {};

TEST_P(LeafResolverBackendTest, MatchesScalarReferenceAtEveryLevel) {
  crypto::PrgBackendGuard guard(GetParam());
  const GgmDprf dprf(FixedBytes(0x07), kBits);
  const shard::ShardedEmm store = BuildStore(dprf);
  const HalfGate half_gate;
  LeafResolverScratch scratch;  // reused across every token, as workers do
  for (int level = 0; level <= kBits; ++level) {
    const uint64_t nodes = uint64_t{1} << (kBits - level);
    // Three positions per level, covering the wrong-token value's node.
    for (const uint64_t index :
         {uint64_t{0}, kWrongTokenValue >> level, nodes - 1}) {
      const GgmDprf::Token token{dprf.NodeSeed(DyadicNode{level, index}),
                                 level};
      for (const sse::LabelGate* gate :
           {static_cast<const sse::LabelGate*>(nullptr),
            static_cast<const sse::LabelGate*>(&half_gate)}) {
        const std::string where = "level " + std::to_string(level) +
                                  " index " + std::to_string(index) +
                                  (gate != nullptr ? " gated" : "");
        sse::SearchStats want_stats;
        const std::vector<Bytes> want =
            ReferenceResolve(token, store, gate, &want_stats);
        CollectSink sink;
        sse::SearchStats got_stats;
        EXPECT_EQ(ResolveGgmToken(token, store, gate, scratch, sink,
                                  &got_stats),
                  size_t{1} << level)
            << where;
        EXPECT_EQ(sink.payloads, want) << where;
        ExpectSameStats(got_stats, want_stats, where);
      }
    }
  }
}

TEST_P(LeafResolverBackendTest, LeafShapesResolveAsBuilt) {
  // Single-leaf tokens: no entry, one entry, a padded pair, a 40-entry
  // chain, and the wrong-token chain that stops after its good prefix.
  crypto::PrgBackendGuard guard(GetParam());
  const GgmDprf dprf(FixedBytes(0x07), kBits);
  const shard::ShardedEmm store = BuildStore(dprf);
  LeafResolverScratch scratch;
  struct Case {
    uint64_t value;
    size_t ids;
    size_t probes;
    size_t decrypts;
  };
  for (const Case& c : {Case{1, 0, 1, 0}, Case{14, 1, 2, 1},
                        Case{3, 2, 5, 4}, Case{5, 40, 41, 40},
                        Case{kWrongTokenValue, 2, 6, 5}}) {
    const GgmDprf::Token token{dprf.Eval(c.value), 0};
    CollectSink sink;
    sse::SearchStats stats;
    ASSERT_EQ(ResolveGgmToken(token, store, nullptr, scratch, sink, &stats),
              1u);
    ASSERT_EQ(sink.payloads.size(), c.ids) << "value " << c.value;
    for (size_t i = 0; i < c.ids; ++i) {
      EXPECT_EQ(sse::DecodeIdPayload(sink.payloads[i]), c.value * 1000 + i);
    }
    EXPECT_EQ(stats.probes, c.probes) << "value " << c.value;
    EXPECT_EQ(stats.decrypts, c.decrypts) << "value " << c.value;
  }
}

TEST_P(LeafResolverBackendTest, MalformedTokenResolvesNothing) {
  crypto::PrgBackendGuard guard(GetParam());
  const shard::ShardedEmm store = shard::ShardedEmm::WithShards(1);
  LeafResolverScratch scratch;
  CollectSink sink;
  sse::SearchStats stats;
  EXPECT_EQ(ResolveGgmToken(GgmDprf::Token{Bytes(5, 1), 2}, store, nullptr,
                            scratch, sink, &stats),
            0u);
  EXPECT_EQ(ResolveGgmToken(GgmDprf::Token{FixedBytes(1), 63}, store,
                            nullptr, scratch, sink, &stats),
            0u);
  EXPECT_TRUE(sink.payloads.empty());
  EXPECT_EQ(stats.probes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, LeafResolverBackendTest,
                         ::testing::Values(crypto::GgmPrg::Backend::kHmac,
                                           crypto::GgmPrg::Backend::kAes));

}  // namespace
}  // namespace rsse
