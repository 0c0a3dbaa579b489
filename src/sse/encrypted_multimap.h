#ifndef RSSE_SSE_ENCRYPTED_MULTIMAP_H_
#define RSSE_SSE_ENCRYPTED_MULTIMAP_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "sse/emm_codec.h"
#include "sse/flat_label_map.h"
#include "sse/keyword_keys.h"

namespace rsse::sse {

/// Plaintext postings to be indexed: keyword -> list of opaque payloads.
/// RSSE schemes encode tuple ids (and, for Logarithmic-SRC-i's I1,
/// (value, position-range) documents) into the payloads.
using PlainMultimap =
    std::unordered_map<Bytes, std::vector<Bytes>, BytesHash>;

/// Optional index padding. `PadListsTo` rounds every posting list up to the
/// next multiple of `quantum` with dummy entries; the paper's Quadratic
/// scheme uses padding so the index shape depends only on (n, m) and not on
/// the data distribution.
struct PaddingPolicy {
  /// 0 disables padding.
  uint64_t quantum = 0;
};

/// Index construction knobs.
struct BuildOptions {
  PaddingPolicy padding;
  /// Worker threads for the (embarrassingly parallel) per-keyword
  /// encryption work. 0 reads the RSSE_BUILD_THREADS environment variable,
  /// defaulting to 1 (single-threaded, paper-faithful timing).
  int threads = 0;
};

/// Static searchable symmetric encryption in the style of Π_bas
/// (Cash et al., NDSS'14), the paper's underlying SSE building block:
/// a flat encrypted dictionary mapping pseudorandom labels to encrypted
/// payloads.
///
///   label(w, c) = F(K1_w, c)            c = 0, 1, ... per posting
///   value(w, c) = Enc(K2_w, payload_c)
///
/// Search receives the token (K1_w, K2_w), probes counters until the first
/// miss and decrypts. Search time is O(r_w); the index leaks only its total
/// size (L1) and, per query, the access/search patterns (L2).
///
/// Storage is a `FlatLabelMap`: fixed 16-byte labels in an open-addressing
/// table, ciphertexts in one contiguous arena. Build and search reuse
/// scratch buffers across counter probes, so the steady-state hot path
/// performs no heap allocation beyond the returned results.
///
/// This class is the *server-side* object; key derivation lives in
/// `KeywordKeyDeriver` so the same index machinery serves both PRF-based
/// schemes and the DPRF-based Constant schemes.
class EncryptedMultimap {
 public:
  EncryptedMultimap() = default;

  /// Builds the encrypted dictionary. Posting order within each keyword is
  /// preserved (callers shuffle beforehand where the scheme requires it).
  /// Dummy padding entries (per `padding`) decrypt to a reserved marker and
  /// are dropped by `Search`.
  static Result<EncryptedMultimap> Build(const PlainMultimap& postings,
                                         const KeywordKeyDeriver& deriver,
                                         const PaddingPolicy& padding = {});

  /// Build with explicit options (threads, padding).
  static Result<EncryptedMultimap> BuildWithOptions(
      const PlainMultimap& postings, const KeywordKeyDeriver& deriver,
      const BuildOptions& options);

  /// Retrieves and decrypts the postings for the keyword behind `token`.
  /// An unknown keyword yields an empty result (indistinguishable from an
  /// empty posting list, as in the paper's model).
  std::vector<Bytes> Search(const KeywordKeys& token) const;

  /// Instrumented search: a non-null `gate` is consulted per entry before
  /// decryption (entries it rejects are skipped as padding dummies); a
  /// non-null `stats` receives probe/decrypt/skip counts.
  std::vector<Bytes> Search(const KeywordKeys& token, const LabelGate* gate,
                            SearchStats* stats) const;

  /// Serializes the encrypted dictionary for persistence or shipping to
  /// the server. The blob holds only pseudorandom labels and ciphertexts —
  /// exactly the server's view. Format: magic/version header, entry count,
  /// then length-prefixed label/value pairs (byte-compatible with every
  /// blob this library has ever produced).
  Bytes Serialize() const;

  /// Restores an index from `Serialize` output; INVALID_ARGUMENT on a
  /// corrupt or foreign blob.
  static Result<EncryptedMultimap> Deserialize(const Bytes& blob);

  /// Number of stored dictionary entries (including padding).
  size_t EntryCount() const { return dict_.size(); }

  /// Total bytes of labels + ciphertexts; the index-size metric of Fig. 5.
  size_t SizeBytes() const {
    return dict_.size() * kLabelBytes + dict_.ValueBytes();
  }

 private:
  FlatLabelMap dict_;
};

/// Encodes/decodes a uint64 document id as a payload (the common case).
Bytes EncodeIdPayload(uint64_t id);
std::optional<uint64_t> DecodeIdPayload(ConstByteSpan payload);

}  // namespace rsse::sse

#endif  // RSSE_SSE_ENCRYPTED_MULTIMAP_H_
