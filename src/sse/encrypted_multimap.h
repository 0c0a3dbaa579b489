#ifndef RSSE_SSE_ENCRYPTED_MULTIMAP_H_
#define RSSE_SSE_ENCRYPTED_MULTIMAP_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"

namespace rsse::sse {

// Plaintext-side types of the Π_bas encrypted dictionary (Cash et al.,
// NDSS'14). The encrypted store itself is `shard::ShardedEmm`, whose
// 1-shard, 1-thread build is the flat dictionary of the paper; the entry
// format lives in sse/emm_codec.h.

/// Plaintext postings to be indexed: keyword -> list of opaque payloads.
/// RSSE schemes encode tuple ids (and, for Logarithmic-SRC-i's I1,
/// (value, position-range) documents) into the payloads.
using PlainMultimap =
    std::unordered_map<Bytes, std::vector<Bytes>, BytesHash>;

/// Optional index padding: every posting list is rounded up to the next
/// multiple of `quantum` with dummy entries; the paper's Quadratic
/// scheme uses padding so the index shape depends only on (n, m) and not on
/// the data distribution.
struct PaddingPolicy {
  /// 0 disables padding.
  uint64_t quantum = 0;
};

/// Encodes/decodes a uint64 document id as a payload (the common case).
inline Bytes EncodeIdPayload(uint64_t id) {
  Bytes out;
  AppendUint64(out, id);
  return out;
}

inline std::optional<uint64_t> DecodeIdPayload(ConstByteSpan payload) {
  if (payload.size() != 8) return std::nullopt;
  uint64_t id = 0;
  for (const uint8_t b : payload) id = (id << 8) | b;  // big-endian
  return id;
}

}  // namespace rsse::sse

#endif  // RSSE_SSE_ENCRYPTED_MULTIMAP_H_
