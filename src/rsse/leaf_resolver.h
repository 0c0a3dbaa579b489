#ifndef RSSE_RSSE_LEAF_RESOLVER_H_
#define RSSE_RSSE_LEAF_RESOLVER_H_

#include <array>
#include <cstddef>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha512_x4.h"
#include "dprf/ggm_dprf.h"
#include "shard/sharded_emm.h"
#include "sse/emm_codec.h"

namespace rsse {

/// Receives the real payloads a resolution finds, in leaf order and, per
/// leaf, in counter order. The span is valid only during the call.
class PayloadSink {
 public:
  virtual ~PayloadSink() = default;
  virtual void Add(ConstByteSpan payload) = 0;
};

/// Per-worker scratch of `ResolveGgmToken`. The leaf buffer only ever grows
/// to the widest subtree seen and the per-block arrays are fixed, so a
/// worker that keeps one scratch allocates nothing per leaf or per hit.
struct LeafResolverScratch {
  /// Leaves per batched block: a multiple of every kernel's lane count,
  /// small enough that a block's keys, midstates and labels stay in L1.
  static constexpr size_t kBlock = 64;

  struct LeafKeys {
    uint8_t label_key[kLabelBytes];
    uint8_t value_key[kLabelBytes];
  };

  std::vector<Label> leaves;
  std::array<LeafKeys, kBlock> keys;
  std::array<crypto::HmacSha512Midstates, kBlock> midstates;
  std::array<Label, kBlock> label0;
  sse::SearchScratch search;
};

/// The served Constant schemes' one leaf resolver: expands the delegated
/// GGM subtree `token`, derives every leaf's keyword keys and searches
/// `emm` for each leaf's postings (through `gate` when set), handing every
/// real payload to `sink`. `LocalBackend` and the server's SearchBatch
/// stream both call it, one token per work unit.
///
/// The result, including every `stats` count, is bit-identical to running
/// `KeysFromSharedSecretInto` + `ShardedEmm::Search` on each leaf of
/// `GgmDprf::ExpandInto(token)` in order. The per-leaf fixed costs are
/// batched across blocks of `kBlock` leaves instead: the multi-lane GGM
/// frontier, the leaf KDF, then the K1 midstates and first label F(K1, 0)
/// of 8 (or 4) leaves per pair of vector compressions, with a
/// different key in each lane. Only leaves whose label 0 hits go on to the
/// counter chain (`sse::SearchChain`) and its decryption.
///
/// Returns the number of leaves searched: 2^level, or 0 for a malformed
/// token (seed not λ bytes, level outside [0, 62]), which yields nothing.
size_t ResolveGgmToken(const GgmDprf::Token& token,
                       const shard::ShardedEmm& emm,
                       const sse::LabelGate* gate,
                       LeafResolverScratch& scratch, PayloadSink& sink,
                       sse::SearchStats* stats);

}  // namespace rsse

#endif  // RSSE_RSSE_LEAF_RESOLVER_H_
