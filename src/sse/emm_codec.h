#ifndef RSSE_SSE_EMM_CODEC_H_
#define RSSE_SSE_EMM_CODEC_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"
#include "crypto/hmac_prf.h"
#include "crypto/sha512_x4.h"
#include "sse/keyword_keys.h"

namespace rsse::sse {

/// Entry-level codec of the Π_bas encrypted dictionary: label derivation
/// (F(K1, counter)), payload framing (real/dummy marker byte, padding) and
/// the counter-probe search loop. The store (`shard::ShardedEmm`) and the
/// served leaf resolver (`rsse::ResolveGgmToken`) both run on this one entry
/// format, so it lives here exactly once.
///
/// Both directions work arena-at-a-time: build stages a whole keyword's
/// padded posting list into scratch arenas, derives every label in one
/// fused multi-lane PRF pass and encrypts every value in one batch AES
/// call; search batch-decrypts runs of consecutive counter hits the same
/// way. The wire format is byte-identical to the entry-at-a-time codec
/// (pinned by the layout and shard-count conformance tests in
/// sharded_emm_test).

/// First plaintext byte of a stored payload: real posting vs padding dummy.
inline constexpr uint8_t kEmmRealMarker = 0x00;
inline constexpr uint8_t kEmmDummyMarker = 0x01;

/// Posting-list length after padding to a multiple of `pad_quantum`
/// (0 disables padding; an empty list pads up to one full quantum).
inline uint64_t PaddedPostingTotal(size_t payload_count, uint64_t pad_quantum) {
  uint64_t total = payload_count;
  if (pad_quantum > 0) {
    total = (total + pad_quantum - 1) / pad_quantum * pad_quantum;
    if (total == 0) total = pad_quantum;
  }
  return total;
}

/// Exact storage footprint of an index: entry count and total ciphertext
/// bytes after padding. `ComputeKeywordEmmSizing` is the per-keyword cost
/// model that the batch staging path reserves from; `ComputeEmmSizing`
/// sums it over an input multimap. Every store build reserves from this
/// one model, so the staging arenas can never diverge from the stores.
struct EmmSizing {
  size_t entries = 0;
  size_t value_bytes = 0;
};

inline EmmSizing ComputeKeywordEmmSizing(const std::vector<Bytes>& payloads,
                                         uint64_t pad_quantum) {
  EmmSizing sizing;
  const uint64_t total = PaddedPostingTotal(payloads.size(), pad_quantum);
  sizing.entries = total;
  for (const Bytes& p : payloads) {
    // One marker byte precedes every stored payload.
    sizing.value_bytes += crypto::Aes128Cbc::CiphertextSize(1 + p.size());
  }
  sizing.value_bytes +=
      (total - payloads.size()) * crypto::Aes128Cbc::CiphertextSize(1);
  return sizing;
}

inline EmmSizing ComputeEmmSizing(
    const std::unordered_map<Bytes, std::vector<Bytes>, BytesHash>& postings,
    uint64_t pad_quantum) {
  EmmSizing sizing;
  for (const auto& [keyword, payloads] : postings) {
    const EmmSizing kw = ComputeKeywordEmmSizing(payloads, pad_quantum);
    sizing.entries += kw.entries;
    sizing.value_bytes += kw.value_bytes;
  }
  return sizing;
}

/// Optional pre-decryption filter consulted by the search loop. When a gate
/// is installed, an entry whose label it rejects is skipped without paying
/// the AES decryption — the gate promises no false negatives for real
/// entries, so skipped entries can only be padding dummies (or, for
/// approximate gates, are re-checked by the post-decrypt marker anyway).
class LabelGate {
 public:
  virtual ~LabelGate() = default;

  /// May the entry stored under `label` hold a real (non-dummy) payload?
  virtual bool MayContainReal(const Label& label) const = 0;
};

/// Per-search instrumentation (bench_false_positives reports these).
struct SearchStats {
  /// Dictionary probes issued, including the terminating miss.
  size_t probes = 0;
  /// Ciphertexts actually decrypted.
  size_t decrypts = 0;
  /// Entries a `LabelGate` rejected before decryption.
  size_t skipped_decrypts = 0;

  void Add(const SearchStats& o) {
    probes += o.probes;
    decrypts += o.decrypts;
    skipped_decrypts += o.skipped_decrypts;
  }
};

/// Reusable staging arenas for the batch build path: one instance per
/// build worker, recycled across keywords so the steady state allocates
/// nothing (the vectors only ever grow to the largest posting list seen).
struct EmmBuildScratch {
  std::vector<Label> labels;
  Bytes plaintexts;
  std::vector<uint32_t> plain_lens;
  Bytes ciphertexts;
};

/// Encrypts the (padded) postings of one keyword arena-at-a-time:
///   1. every label F(K1, c), c = 0..total, in one fused multi-lane PRF
///      pass over the cached key midstates;
///   2. the padded posting list staged into one scratch plaintext arena
///      (marker byte + payload per entry);
///   3. one batch AES call — single cached key schedule, IVs from one
///      pooled draw — into a scratch ciphertext arena reserved from
///      `ComputeKeywordEmmSizing`, the same cost model the stores use;
///   4. each ciphertext handed to `emit(label, exact_size)`, which returns
///      the destination span (table arena or shard staging bucket).
template <typename Emit>
Status EncryptKeywordEntries(const Bytes& keyword,
                             const std::vector<Bytes>& payloads,
                             const KeywordKeyDeriver& deriver,
                             uint64_t pad_quantum, EmmBuildScratch& scratch,
                             Emit&& emit) {
  const KeywordKeys keys = deriver.Derive(keyword);
  const crypto::Prf label_prf(keys.label_key);
  if (!label_prf.ok()) {
    return Status::Internal("label PRF initialization failed");
  }
  const EmmSizing sizing = ComputeKeywordEmmSizing(payloads, pad_quantum);
  const size_t total = sizing.entries;

  scratch.labels.resize(total);
  if (total > 0 &&
      !label_prf.EvalCountersInto(
          0, total, ByteSpan(scratch.labels[0].data(), total * kLabelBytes),
          kLabelBytes)) {
    return Status::Internal("label PRF evaluation failed");
  }

  scratch.plaintexts.clear();
  scratch.plaintexts.reserve(sizing.value_bytes);  // over-reserve: no regrow
  scratch.plain_lens.clear();
  scratch.plain_lens.reserve(total);
  for (size_t c = 0; c < total; ++c) {
    if (c < payloads.size()) {
      scratch.plaintexts.push_back(kEmmRealMarker);
      Append(scratch.plaintexts, payloads[c]);
      scratch.plain_lens.push_back(
          static_cast<uint32_t>(1 + payloads[c].size()));
    } else {
      scratch.plaintexts.push_back(kEmmDummyMarker);
      scratch.plain_lens.push_back(1);
    }
  }

  // Grow-only: shrinking and regrowing would value-initialize (memset) a
  // region the batch encryption fully overwrites anyway.
  if (scratch.ciphertexts.size() < sizing.value_bytes) {
    scratch.ciphertexts.resize(sizing.value_bytes);
  }
  size_t written = 0;
  Status s = crypto::Aes128Cbc::EncryptManyInto(
      keys.value_key, scratch.plaintexts, scratch.plain_lens,
      ByteSpan(scratch.ciphertexts.data(), sizing.value_bytes), &written);
  if (!s.ok()) return s;
  if (written != sizing.value_bytes) {
    return Status::Internal("batch encryption diverged from the cost model");
  }

  size_t offset = 0;
  for (size_t c = 0; c < total; ++c) {
    const size_t ct_size =
        crypto::Aes128Cbc::CiphertextSize(scratch.plain_lens[c]);
    ByteSpan dst = emit(scratch.labels[c], ct_size);
    if (dst.size() < ct_size) {
      return Status::Internal("emit sink returned an undersized span");
    }
    std::memcpy(dst.data(), scratch.ciphertexts.data() + offset, ct_size);
    offset += ct_size;
  }
  return Status::Ok();
}

/// Grow-only buffers of the counter-probe loop: gathered ciphertexts and
/// their batch plaintexts. One per search worker, recycled across chains,
/// so a steady-state search allocates nothing per probe or per hit.
struct SearchScratch {
  Bytes cts;                      // gathered ciphertexts, packed
  std::vector<uint32_t> ct_lens;  // per-gathered-entry ciphertext sizes
  Bytes plains;                   // batch plaintexts (padded spacing)
  std::vector<uint32_t> plain_lens;
};

/// The calling thread's `SearchScratch` (for searches without their own).
SearchScratch& ThreadSearchScratch();

/// The counter-probe search loop shared by every storage layout and by the
/// leaf resolver: probes labels F(K1, c) for c = 0, 1, ... through `find`
/// (`std::optional<ConstByteSpan> find(const Label&)`), stopping at the
/// first miss. The first `prefix.size()` labels are taken from `prefix`
/// (the leaf resolver derives label 0 for many leaves at once); the rest
/// are derived here from `label_key`'s midstates — one label right after a
/// prefix (a one-entry chain needs exactly one more probe), 8 per fused
/// multi-lane pass otherwise. Hits are gathered and decrypted in batches
/// of up to 32 under `value_key` (one key schedule per batch). Each real
/// payload is handed to `emit(ConstByteSpan)` in counter order (the span
/// lives until `emit` returns); dummies are dropped; a failed decryption
/// (wrong token) ends the search. With a `gate`, entries the gate rejects
/// skip decryption.
template <typename FindFn, typename EmitFn>
void SearchChain(const crypto::HmacSha512Midstates& label_key,
                 ConstByteSpan value_key, std::span<const Label> prefix,
                 FindFn&& find, EmitFn&& emit, SearchScratch& scratch,
                 const LabelGate* gate = nullptr,
                 SearchStats* stats = nullptr) {
  constexpr size_t kLabelChunk = 8;
  constexpr size_t kDecryptBatch = 32;
  scratch.cts.clear();
  scratch.ct_lens.clear();

  // Decrypts the gathered batch and emits its real payloads; false on a
  // failed decryption (wrong token — the caller stops probing).
  auto flush = [&]() {
    std::vector<uint32_t>& ct_lens = scratch.ct_lens;
    if (ct_lens.empty()) return true;
    if (stats != nullptr) stats->decrypts += ct_lens.size();
    scratch.plains.resize(scratch.cts.size() -
                          ct_lens.size() * crypto::Aes128Cbc::kBlockBytes);
    scratch.plain_lens.resize(ct_lens.size());
    if (!crypto::Aes128Cbc::DecryptManyInto(value_key, scratch.cts, ct_lens,
                                            scratch.plains,
                                            scratch.plain_lens)
             .ok()) {
      return false;
    }
    size_t offset = 0;
    for (size_t i = 0; i < ct_lens.size(); ++i) {
      const uint32_t len = scratch.plain_lens[i];
      if (len == crypto::Aes128Cbc::kBadEntry || len == 0) return false;
      if (scratch.plains[offset] != kEmmDummyMarker) {
        emit(ConstByteSpan(scratch.plains.data() + offset + 1, len - 1));
      }
      offset += ct_lens[i] - crypto::Aes128Cbc::kBlockBytes;
    }
    scratch.cts.clear();
    ct_lens.clear();
    return true;
  };

  Label derived[kLabelChunk];
  std::span<const Label> labels = prefix;
  uint64_t next = prefix.size();
  for (;;) {
    if (labels.empty()) {
      const size_t chunk = next == prefix.size() && next > 0 ? 1 : kLabelChunk;
      crypto::HmacSha512Counters(label_key, next, chunk, derived[0].data(),
                                 kLabelBytes, kLabelBytes);
      labels = std::span<const Label>(derived, chunk);
      next += chunk;
    }
    for (const Label& label : labels) {
      if (stats != nullptr) ++stats->probes;
      std::optional<ConstByteSpan> ct = find(label);
      if (!ct.has_value()) {
        flush();
        return;
      }
      if (gate != nullptr && !gate->MayContainReal(label)) {
        // The gate has no false negatives, so this entry is a padding
        // dummy; skip the decryption it would have cost.
        if (stats != nullptr) ++stats->skipped_decrypts;
        continue;
      }
      if (ct->size() < 2 * crypto::Aes128Cbc::kBlockBytes ||
          ct->size() % crypto::Aes128Cbc::kBlockBytes != 0) {
        // Structurally malformed stored value (only reachable via foreign
        // Update entries): treat it as terminal like the per-entry loop
        // did, but still deliver the valid entries gathered before it.
        flush();
        return;
      }
      scratch.cts.insert(scratch.cts.end(), ct->begin(), ct->end());
      scratch.ct_lens.push_back(static_cast<uint32_t>(ct->size()));
      if (scratch.ct_lens.size() >= kDecryptBatch && !flush()) return;
    }
    labels = {};
  }
}

/// Keyword-token search: `SearchChain` from counter 0 under the token's
/// keys, appending each real payload to `results`.
template <typename FindFn>
void SearchEntries(const KeywordKeys& token, FindFn&& find,
                   std::vector<Bytes>& results,
                   const LabelGate* gate = nullptr,
                   SearchStats* stats = nullptr) {
  const crypto::HmacSha512Midstates label_key =
      crypto::HmacSha512KeyMidstates(token.label_key.data(),
                                     token.label_key.size());
  SearchChain(
      label_key, ConstByteSpan(token.value_key.data(), token.value_key.size()),
      {}, find,
      [&results](ConstByteSpan payload) {
        results.emplace_back(payload.begin(), payload.end());
      },
      ThreadSearchScratch(), gate, stats);
}

}  // namespace rsse::sse

#endif  // RSSE_SSE_EMM_CODEC_H_
