#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/hmac_prf.h"
#include "crypto/sha512_x4.h"
#include "shard/sharded_emm.h"
#include "sse/emm_codec.h"
#include "sse/encrypted_multimap.h"
#include "sse/flat_label_map.h"
#include "sse/keyword_keys.h"

// The chunked counter-probe loop (`sse::SearchChain`: fused label chunks,
// home-slot and value prefetch, batched decryption) against a scalar
// reference built only from public calls: `Prf::EvalCountersInto` for the
// labels, one `Find` per label, and `Aes128Cbc::DecryptManyInto` over each
// batch of at most 32 gathered entries. Payloads, their order and every
// `SearchStats` count must match. ctest runs this binary three times —
// default, RSSE_NO_AVX512=1 and RSSE_NO_AVX2=1 — so each SHA-512 kernel
// tier derives the chunks once.

namespace rsse::sse {
namespace {

Bytes FixedBytes(uint8_t fill) {
  Bytes b(kLabelBytes);
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<uint8_t>(fill + i);
  return b;
}

KeywordKeys KeysFor(uint8_t seed) {
  return KeywordKeys{FixedBytes(seed), FixedBytes(static_cast<uint8_t>(~seed))};
}

/// Hands out fixed keys, so entries land under keys the test chooses.
class FixedDeriver : public KeywordKeyDeriver {
 public:
  explicit FixedDeriver(KeywordKeys keys) : keys_(std::move(keys)) {}
  KeywordKeys Derive(const Bytes&) const override { return keys_; }

 private:
  KeywordKeys keys_;
};

/// Admits every real label and a deterministic half of the rest: no false
/// negatives, as the Bloom gate promises, and false positives that cost a
/// decryption the marker byte then drops.
class RealOrHalfGate : public LabelGate {
 public:
  bool MayContainReal(const Label& label) const override {
    return real.count(label) > 0 || (label[3] & 1) == 0;
  }
  std::set<Label> real;
};

std::vector<Label> Labels(const KeywordKeys& keys, size_t count) {
  std::vector<Label> labels(count);
  const crypto::Prf prf(keys.label_key);
  EXPECT_TRUE(count == 0 ||
              prf.EvalCountersInto(
                  0, count, ByteSpan(labels[0].data(), count * kLabelBytes),
                  kLabelBytes));
  return labels;
}

/// Encrypts `payloads` (padded to `pad`) under `keys` into `map`, and
/// registers their real labels with `gate`.
void AddChain(const KeywordKeys& keys, const std::vector<Bytes>& payloads,
              uint64_t pad, FlatLabelMap& map, RealOrHalfGate& gate) {
  EmmBuildScratch scratch;
  ASSERT_TRUE(EncryptKeywordEntries(Bytes{}, payloads, FixedDeriver(keys), pad,
                                    scratch,
                                    [&map](const Label& label, size_t len) {
                                      return map.InsertUninit(label, len);
                                    })
                  .ok());
  for (const Label& label : Labels(keys, payloads.size())) {
    gate.real.insert(label);
  }
}

struct Outcome {
  std::vector<Bytes> payloads;
  SearchStats stats;
};

/// The served semantics of one chain, written out scalar: probe counters
/// 0, 1, ... until the first miss; gate-rejected entries are skipped; a
/// malformed value ends the chain after the entries gathered before it;
/// every 32 gathered entries (and the chain's end) are decrypted in one
/// batch, and a failed entry ends the chain after the payloads before it.
template <typename Store>
Outcome Reference(const KeywordKeys& keys, const Store& store,
                  const LabelGate* gate) {
  constexpr size_t kBudget = 8192;  // longer than any chain built here
  const std::vector<Label> labels = Labels(keys, kBudget);
  const ConstByteSpan value_key(keys.value_key.data(), keys.value_key.size());
  Outcome out;
  Bytes cts;
  std::vector<uint32_t> lens;
  auto flush = [&]() {
    if (lens.empty()) return true;
    out.stats.decrypts += lens.size();
    Bytes plains(cts.size());
    std::vector<uint32_t> plain_lens(lens.size());
    if (!crypto::Aes128Cbc::DecryptManyInto(value_key, cts, lens, plains,
                                            plain_lens)
             .ok()) {
      return false;
    }
    size_t offset = 0;
    for (size_t i = 0; i < lens.size(); ++i) {
      const uint32_t len = plain_lens[i];
      if (len == crypto::Aes128Cbc::kBadEntry || len == 0) return false;
      if (plains[offset] != kEmmDummyMarker) {
        out.payloads.emplace_back(plains.begin() + offset + 1,
                                  plains.begin() + offset + len);
      }
      offset += lens[i] - crypto::Aes128Cbc::kBlockBytes;
    }
    cts.clear();
    lens.clear();
    return true;
  };
  for (const Label& label : labels) {
    ++out.stats.probes;
    const std::optional<ConstByteSpan> ct = store.Find(label);
    if (!ct.has_value()) {
      flush();
      return out;
    }
    if (gate != nullptr && !gate->MayContainReal(label)) {
      ++out.stats.skipped_decrypts;
      continue;
    }
    if (ct->size() < 32 || ct->size() % 16 != 0) {
      flush();
      return out;
    }
    cts.insert(cts.end(), ct->begin(), ct->end());
    lens.push_back(static_cast<uint32_t>(ct->size()));
    if (lens.size() == 32 && !flush()) return out;
  }
  ADD_FAILURE() << "chain outran the reference's label budget";
  return out;
}

/// `SearchChain` with the first `prefix` labels derived by the caller, as
/// the leaf resolver passes label 0.
template <typename Store>
Outcome Chunked(const KeywordKeys& keys, const Store& store,
                const LabelGate* gate, size_t prefix) {
  const std::vector<Label> labels = Labels(keys, prefix);
  const crypto::HmacSha512Midstates label_key =
      crypto::HmacSha512KeyMidstates(keys.label_key.data(),
                                     keys.label_key.size());
  Outcome out;
  SearchScratch scratch;
  SearchChain(
      label_key, ConstByteSpan(keys.value_key.data(), keys.value_key.size()),
      std::span<const Label>(labels), store,
      [&out](ConstByteSpan payload) {
        out.payloads.emplace_back(payload.begin(), payload.end());
      },
      scratch, gate, &out.stats);
  return out;
}

void ExpectSame(const Outcome& got, const Outcome& want,
                const std::string& where) {
  EXPECT_EQ(got.payloads, want.payloads) << where;
  EXPECT_EQ(got.stats.probes, want.stats.probes) << where;
  EXPECT_EQ(got.stats.decrypts, want.stats.decrypts) << where;
  EXPECT_EQ(got.stats.skipped_decrypts, want.stats.skipped_decrypts)
      << where;
}

/// Checks every way of running the chain of `keys` in `store` — prefixes
/// of 0, 1 and 20 labels (longer than one chunk), and `SearchEntries` —
/// against the reference, which it returns.
template <typename Store>
Outcome ExpectParity(const KeywordKeys& keys, const Store& store,
                     const LabelGate* gate, const std::string& where) {
  const Outcome want = Reference(keys, store, gate);
  for (size_t prefix : {0, 1, 20}) {
    ExpectSame(Chunked(keys, store, gate, prefix), want,
               where + " prefix=" + std::to_string(prefix));
  }
  Outcome entries;
  SearchEntries(
      keys, store,
      [&entries](ConstByteSpan payload) {
        entries.payloads.emplace_back(payload.begin(), payload.end());
      },
      gate, &entries.stats);
  ExpectSame(entries, want, where + " SearchEntries");
  return want;
}

std::vector<Bytes> IdPayloads(size_t n) {
  std::vector<Bytes> payloads;
  for (size_t i = 0; i < n; ++i) payloads.push_back(EncodeIdPayload(i * 7));
  return payloads;
}

/// A heap map holding the chain of `KeysFor(1)` plus three neighbours
/// (so probe sequences cross foreign entries), and its gate.
struct Fixture {
  FlatLabelMap map;
  RealOrHalfGate gate;
};

void Fill(Fixture& f, const std::vector<Bytes>& chain, uint64_t pad) {
  for (uint8_t seed = 2; seed < 5; ++seed) {
    AddChain(KeysFor(seed), IdPayloads(50), 4, f.map, f.gate);
  }
  AddChain(KeysFor(1), chain, pad, f.map, f.gate);
}

/// A view map over the packed v2 sections of `heap` (the sections own the
/// bytes the view borrows).
struct ViewOf {
  explicit ViewOf(const FlatLabelMap& heap)
      : slots(heap.V2SlotsBytes()), arena(heap.V2ArenaBytes()) {
    heap.WriteV2Sections(ByteSpan(slots.data(), slots.size()),
                         ByteSpan(arena.data(), arena.size()));
    Result<FlatLabelMap> v = FlatLabelMap::View(
        ConstByteSpan(slots.data(), slots.size()),
        ConstByteSpan(arena.data(), arena.size()), heap.size(),
        heap.V2ArenaBytes());
    EXPECT_TRUE(v.ok());
    if (v.ok()) map = std::move(v).value();
  }
  Bytes slots;
  Bytes arena;
  FlatLabelMap map;
};

TEST(SearchChainTest, MatchesScalarReferenceAcrossChainLengths) {
  const KeywordKeys keys = KeysFor(1);
  for (size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 4097}) {
    for (uint64_t pad : {0, 4}) {
      Fixture f;
      Fill(f, IdPayloads(n), pad);
      ViewOf view(f.map);
      ASSERT_TRUE(view.map.IsView());
      for (const LabelGate* gate :
           {static_cast<const LabelGate*>(nullptr),
            static_cast<const LabelGate*>(&f.gate)}) {
        const std::string where = "n=" + std::to_string(n) +
                                  " pad=" + std::to_string(pad) +
                                  (gate != nullptr ? " gated" : "");
        const Outcome heap = ExpectParity(keys, f.map, gate, where + " heap");
        EXPECT_EQ(heap.payloads, IdPayloads(n)) << where;
        EXPECT_EQ(heap.stats.probes, PaddedPostingTotal(n, pad) + 1)
            << where;
        ExpectSame(ExpectParity(keys, view.map, gate, where + " view"), heap,
                   where + " view vs heap");
      }
    }
  }
}

TEST(SearchChainTest, ShardedStoreMatchesReference) {
  // The served store type: labels routed across shards.
  RealOrHalfGate gate;
  FlatLabelMap staging;
  AddChain(KeysFor(1), IdPayloads(100), 4, staging, gate);
  shard::ShardedEmm store = shard::ShardedEmm::WithShards(3);
  staging.ForEach([&store](const Label& label, ConstByteSpan value) {
    store.Insert(label, value);
  });
  const Outcome gated = ExpectParity(KeysFor(1), store, &gate, "sharded");
  EXPECT_EQ(gated.payloads, IdPayloads(100));
  ExpectParity(KeysFor(1), store, nullptr, "sharded ungated");
}

TEST(SearchChainTest, ZeroLengthPayloadsAreDelivered) {
  std::vector<Bytes> chain = IdPayloads(40);
  chain[0].clear();
  chain[17].clear();
  chain[39].clear();
  Fixture f;
  Fill(f, chain, 4);
  for (const LabelGate* gate :
       {static_cast<const LabelGate*>(nullptr),
        static_cast<const LabelGate*>(&f.gate)}) {
    const Outcome got = ExpectParity(KeysFor(1), f.map, gate, "zero-length");
    EXPECT_EQ(got.payloads, chain);
  }
}

TEST(SearchChainTest, MalformedValueMidChainEndsIt) {
  // Counter 20 overwritten with a 17-byte value (only reachable through a
  // foreign Update): the 20 entries before it are delivered, nothing after.
  Fixture f;
  Fill(f, IdPayloads(40), 0);
  const Label bad = Labels(KeysFor(1), 21)[20];
  const Bytes malformed(17, 0x5a);
  f.map.Insert(bad, ConstByteSpan(malformed.data(), malformed.size()));
  ViewOf view(f.map);
  for (const LabelGate* gate :
       {static_cast<const LabelGate*>(nullptr),
        static_cast<const LabelGate*>(&f.gate)}) {
    const Outcome got = ExpectParity(KeysFor(1), f.map, gate, "malformed");
    const std::vector<Bytes> all = IdPayloads(40);
    EXPECT_EQ(got.payloads, std::vector<Bytes>(all.begin(), all.begin() + 20));
    EXPECT_EQ(got.stats.probes, 21u);
    ExpectParity(KeysFor(1), view.map, gate, "malformed view");
  }
}

TEST(SearchChainTest, WrongTokenFindsNothing) {
  Fixture f;
  Fill(f, IdPayloads(100), 4);
  // Right labels, wrong value key: the first batch fails to decrypt (up to
  // the odd entry whose garbage happens to pass the padding check).
  KeywordKeys wrong_value = KeysFor(1);
  wrong_value.value_key = FixedBytes(0x77);
  const Outcome got = ExpectParity(wrong_value, f.map, nullptr, "wrong value");
  EXPECT_LT(got.payloads.size(), 32u);
  EXPECT_LE(got.stats.probes, 32u);
  ExpectParity(wrong_value, f.map, &f.gate, "wrong value gated");
  // Unknown keyword: one probe, one miss.
  const Outcome unknown = ExpectParity(KeysFor(9), f.map, &f.gate, "unknown");
  EXPECT_TRUE(unknown.payloads.empty());
  EXPECT_EQ(unknown.stats.probes, 1u);
}

TEST(SearchChainTest, EmptyStoresMissAtOnce) {
  const FlatLabelMap empty_map;
  const Outcome a = ExpectParity(KeysFor(1), empty_map, nullptr, "empty map");
  EXPECT_EQ(a.stats.probes, 1u);
  const shard::ShardedEmm empty_store;
  const Outcome b =
      ExpectParity(KeysFor(1), empty_store, nullptr, "empty sharded");
  EXPECT_EQ(b.stats.probes, 1u);
}

}  // namespace
}  // namespace rsse::sse
