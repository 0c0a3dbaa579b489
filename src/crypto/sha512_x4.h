#ifndef RSSE_CRYPTO_SHA512_X4_H_
#define RSSE_CRYPTO_SHA512_X4_H_

#include <cstddef>
#include <cstdint>

namespace rsse::crypto {

/// Multi-lane HMAC-SHA-512, vectorized with AVX-512 (8 lanes: vprorq
/// rotates, vpternlogq bit-selects) or AVX2 (4 lanes) where the host
/// supports them, with a scalar tail for the lanes left over. Every HMAC
/// here has a message that fits one SHA-512 block after the key block, so
/// each evaluation is two compressions: the inner one under the ipad
/// midstate, and the outer one whose message words are the inner digest
/// words verbatim (SHA-512 reads words big-endian on both sides).
///
/// Three kernel shapes share the same compressions:
///  * counters under one key — F(K1, c) for a run of c, the label
///    derivation of index build and counter-probe search;
///  * 16-byte messages under one key — the HMAC GGM PRG, one parent seed
///    per lane;
///  * one 16-byte key per lane — the K1 midstates of many GGM leaves plus
///    their first label F(K1, 0), the per-leaf setup of served Constant
///    queries.
///
/// Outputs are bit-identical to scalar HMAC-SHA-512 (pinned against the
/// OpenSSL-backed `Prf::EvalInto` and the RFC 4231 KATs by the unit tests).

/// HMAC-SHA-512 key midstates: the SHA-512 hash words after absorbing the
/// 128-byte key block XOR ipad (`inner`) and XOR opad (`outer`).
struct HmacSha512Midstates {
  uint64_t inner[8];
  uint64_t outer[8];
};

/// Vector lanes per kernel call: 8 (AVX-512), 4 (AVX2) or 0 (scalar only).
/// Detected once at runtime; RSSE_NO_AVX512=1 caps the tier at 4 lanes
/// (pins the AVX2 kernels on AVX-512 hosts) and RSSE_NO_AVX2=1 forces 0
/// (scalar everywhere). Every function below accepts any count and is
/// correct on every tier.
size_t HmacSha512CounterLanes();

/// Midstates of an arbitrary-length key (keys longer than the 128-byte
/// block are hashed first, shorter ones zero-padded — RFC 2104).
HmacSha512Midstates HmacSha512KeyMidstates(const uint8_t* key,
                                           size_t key_len);

/// F(key, BE64(start + i)) for i = 0..count-1; the leading `out_len`
/// (<= 64) MAC bytes of entry i are written at `out + i * out_stride`.
void HmacSha512Counters(const HmacSha512Midstates& key, uint64_t start,
                        size_t count, uint8_t* out, size_t out_len,
                        size_t out_stride);

/// F(key, msgs[i]) for `count` 16-byte messages packed at `msgs`; the
/// leading `out_len` (<= 64) MAC bytes of message i are written at
/// `out + i * out_stride`. `out` must not overlap `msgs`.
void HmacSha512Msg16(const HmacSha512Midstates& key, const uint8_t* msgs,
                     size_t count, uint8_t* out, size_t out_len,
                     size_t out_stride);

/// For `count` 16-byte keys (key i at `keys + i * key_stride`): their
/// midstates into `midstates[i]` and the leading `out_len` (<= 64) bytes
/// of F(key_i, BE64(0)) at `out + i * out_stride`.
void HmacSha512Key16Setup(const uint8_t* keys, size_t key_stride,
                          size_t count, HmacSha512Midstates* midstates,
                          uint8_t* out, size_t out_len, size_t out_stride);

}  // namespace rsse::crypto

#endif  // RSSE_CRYPTO_SHA512_X4_H_
