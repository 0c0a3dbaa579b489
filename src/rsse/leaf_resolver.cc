#include "rsse/leaf_resolver.h"

#include <algorithm>
#include <span>

#include "sse/keyword_keys.h"

namespace rsse {

size_t ResolveGgmToken(const GgmDprf::Token& token,
                       const shard::ShardedEmm& emm,
                       const sse::LabelGate* gate,
                       LeafResolverScratch& scratch, PayloadSink& sink,
                       sse::SearchStats* stats) {
  if (!GgmDprf::ExpandInto(token, scratch.leaves)) return 0;
  const auto emit = [&sink](ConstByteSpan payload) { sink.Add(payload); };
  const size_t n = scratch.leaves.size();
  for (size_t base = 0; base < n; base += LeafResolverScratch::kBlock) {
    const size_t m = std::min(LeafResolverScratch::kBlock, n - base);
    for (size_t i = 0; i < m; ++i) {
      if (!sse::KeysFromLambdaSecretInto(scratch.leaves[base + i].data(),
                                         scratch.keys[i].label_key,
                                         scratch.keys[i].value_key)) {
        // A failed hash (a broken OpenSSL build) leaves no trustworthy
        // key: stop rather than search under garbage.
        return n;
      }
    }
    crypto::HmacSha512Key16Setup(
        scratch.keys[0].label_key, sizeof(LeafResolverScratch::LeafKeys), m,
        scratch.midstates.data(), scratch.label0[0].data(), kLabelBytes,
        kLabelBytes);
    // Every leaf probes its label 0, and most of those probes miss the
    // cache: start all of the block's loads before the first probe.
    for (size_t i = 0; i < m; ++i) emm.Prefetch(scratch.label0[i]);
    for (size_t i = 0; i < m; ++i) {
      sse::SearchChain(
          scratch.midstates[i],
          ConstByteSpan(scratch.keys[i].value_key, kLabelBytes),
          std::span<const Label>(&scratch.label0[i], 1), emm, emit,
          scratch.search, gate, stats);
    }
  }
  return n;
}

}  // namespace rsse
