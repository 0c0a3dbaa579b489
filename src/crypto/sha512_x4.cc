// The scalar tier runs OpenSSL's SHA-512 block function directly
// (SHA512_Transform) on midstates the vector tiers share.
#define OPENSSL_SUPPRESS_DEPRECATED

#include "crypto/sha512_x4.h"

#include <openssl/sha.h>

#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define RSSE_SHA512_X4_COMPILED 1
#include <immintrin.h>
// GCC's unmasked AVX-512 intrinsics expand through _mm512_undefined_epi32,
// which -Wmaybe-uninitialized flags spuriously under -O2.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#endif

namespace rsse::crypto {

namespace {

inline uint64_t LoadBe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return __builtin_bswap64(v);
}

inline void StoreBe64(uint8_t* p, uint64_t v) {
  v = __builtin_bswap64(v);
  std::memcpy(p, &v, 8);
}

// FIPS 180-4 initial hash value.
constexpr uint64_t kIv[8] = {
    0x6a09e667f3bcc908ull, 0xbb67ae8584caa73bull, 0x3c6ef372fe94f82bull,
    0xa54ff53a5f1d36f1ull, 0x510e527fade682d1ull, 0x9b05688c2b3e6c1full,
    0x1f83d9abfb41bd6bull, 0x5be0cd19137e2179ull};

constexpr uint64_t kPadWord = 0x8000000000000000ull;
// Bit lengths of the inner message (key block + 8-byte counter or 16-byte
// message) and of the outer message (key block + 64-byte inner digest).
constexpr uint64_t kCounterBits = (128 + 8) * 8;
constexpr uint64_t kMsg16Bits = (128 + 16) * 8;
constexpr uint64_t kOuterBits = (128 + 64) * 8;

#ifdef RSSE_SHA512_X4_COMPILED

// FIPS 180-4 round constants.
constexpr uint64_t kK[80] = {
    0x428a2f98d728ae22ull, 0x7137449123ef65cdull, 0xb5c0fbcfec4d3b2full,
    0xe9b5dba58189dbbcull, 0x3956c25bf348b538ull, 0x59f111f1b605d019ull,
    0x923f82a4af194f9bull, 0xab1c5ed5da6d8118ull, 0xd807aa98a3030242ull,
    0x12835b0145706fbeull, 0x243185be4ee4b28cull, 0x550c7dc3d5ffb4e2ull,
    0x72be5d74f27b896full, 0x80deb1fe3b1696b1ull, 0x9bdc06a725c71235ull,
    0xc19bf174cf692694ull, 0xe49b69c19ef14ad2ull, 0xefbe4786384f25e3ull,
    0x0fc19dc68b8cd5b5ull, 0x240ca1cc77ac9c65ull, 0x2de92c6f592b0275ull,
    0x4a7484aa6ea6e483ull, 0x5cb0a9dcbd41fbd4ull, 0x76f988da831153b5ull,
    0x983e5152ee66dfabull, 0xa831c66d2db43210ull, 0xb00327c898fb213full,
    0xbf597fc7beef0ee4ull, 0xc6e00bf33da88fc2ull, 0xd5a79147930aa725ull,
    0x06ca6351e003826full, 0x142929670a0e6e70ull, 0x27b70a8546d22ffcull,
    0x2e1b21385c26c926ull, 0x4d2c6dfc5ac42aedull, 0x53380d139d95b3dfull,
    0x650a73548baf63deull, 0x766a0abb3c77b2a8ull, 0x81c2c92e47edaee6ull,
    0x92722c851482353bull, 0xa2bfe8a14cf10364ull, 0xa81a664bbc423001ull,
    0xc24b8b70d0f89791ull, 0xc76c51a30654be30ull, 0xd192e819d6ef5218ull,
    0xd69906245565a910ull, 0xf40e35855771202aull, 0x106aa07032bbd1b8ull,
    0x19a4c116b8d2d0c8ull, 0x1e376c085141ab53ull, 0x2748774cdf8eeb99ull,
    0x34b0bcb5e19b48a8ull, 0x391c0cb3c5c95a63ull, 0x4ed8aa4ae3418acbull,
    0x5b9cca4f7763e373ull, 0x682e6ff3d6b2b8a3ull, 0x748f82ee5defb2fcull,
    0x78a5636f43172f60ull, 0x84c87814a1f0ab72ull, 0x8cc702081a6439ecull,
    0x90befffa23631e28ull, 0xa4506cebde82bde9ull, 0xbef9a3f7b2c67915ull,
    0xc67178f2e372532bull, 0xca273eceea26619cull, 0xd186b8c721c0c207ull,
    0xeada7dd6cde0eb1eull, 0xf57d4f7fee6ed178ull, 0x06f067aa72176fbaull,
    0x0a637dc5a2c898a6ull, 0x113f9804bef90daeull, 0x1b710b35131c471bull,
    0x28db77f523047d84ull, 0x32caab7b40c72493ull, 0x3c9ebe0a15c9bebcull,
    0x431d67c49c100d4cull, 0x4cc5d4becb3e42b6ull, 0x597f299cfc657e2aull,
    0x5fcb6fab3ad6faecull, 0x6c44198c4a475817ull};

__attribute__((target("avx2"))) inline __m256i Ror64(__m256i x, int r) {
  return _mm256_or_si256(_mm256_srli_epi64(x, r),
                         _mm256_slli_epi64(x, 64 - r));
}

// Big sigmas (round function) and small sigmas (message schedule).
__attribute__((target("avx2"))) inline __m256i BigSigma0(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(Ror64(x, 28), Ror64(x, 34)),
                          Ror64(x, 39));
}
__attribute__((target("avx2"))) inline __m256i BigSigma1(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(Ror64(x, 14), Ror64(x, 18)),
                          Ror64(x, 41));
}
__attribute__((target("avx2"))) inline __m256i SmallSigma0(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(Ror64(x, 1), Ror64(x, 8)),
                          _mm256_srli_epi64(x, 7));
}
__attribute__((target("avx2"))) inline __m256i SmallSigma1(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(Ror64(x, 19), Ror64(x, 61)),
                          _mm256_srli_epi64(x, 6));
}
__attribute__((target("avx2"))) inline __m256i Ch(__m256i e, __m256i f,
                                                  __m256i g) {
  // (e & f) ^ (~e & g).
  return _mm256_xor_si256(_mm256_and_si256(e, f),
                          _mm256_andnot_si256(e, g));
}
__attribute__((target("avx2"))) inline __m256i Maj(__m256i a, __m256i b,
                                                   __m256i c) {
  return _mm256_xor_si256(
      _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
      _mm256_and_si256(b, c));
}

/// One SHA-512 compression on four lanes: `state[w]` holds hash word w
/// across lanes and is updated in place; `w_in[t]` holds message word t
/// across lanes (already in host word order — SHA-512 reads words
/// big-endian, and every caller's words are constructed as values, never
/// loaded from byte streams).
__attribute__((target("avx2"))) void TransformX4(__m256i state[8],
                                                 const __m256i w_in[16]) {
  __m256i w[16];
  for (int t = 0; t < 16; ++t) w[t] = w_in[t];
  __m256i a = state[0];
  __m256i b = state[1];
  __m256i c = state[2];
  __m256i d = state[3];
  __m256i e = state[4];
  __m256i f = state[5];
  __m256i g = state[6];
  __m256i h = state[7];
  for (int t = 0; t < 80; ++t) {
    if (t >= 16) {
      w[t & 15] = _mm256_add_epi64(
          _mm256_add_epi64(SmallSigma1(w[(t - 2) & 15]), w[(t - 7) & 15]),
          _mm256_add_epi64(SmallSigma0(w[(t - 15) & 15]), w[t & 15]));
    }
    const __m256i t1 = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_add_epi64(h, BigSigma1(e)), Ch(e, f, g)),
        _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(kK[t])),
                         w[t & 15]));
    const __m256i t2 = _mm256_add_epi64(BigSigma0(a), Maj(a, b, c));
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi64(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi64(t1, t2);
  }
  state[0] = _mm256_add_epi64(state[0], a);
  state[1] = _mm256_add_epi64(state[1], b);
  state[2] = _mm256_add_epi64(state[2], c);
  state[3] = _mm256_add_epi64(state[3], d);
  state[4] = _mm256_add_epi64(state[4], e);
  state[5] = _mm256_add_epi64(state[5], f);
  state[6] = _mm256_add_epi64(state[6], g);
  state[7] = _mm256_add_epi64(state[7], h);
}

bool DetectAvx2() {
  // RSSE_NO_AVX2 forces the scalar fallback (testing / triage).
  const char* off = std::getenv("RSSE_NO_AVX2");
  if (off != nullptr && off[0] != '\0' && off[0] != '0') return false;
  return __builtin_cpu_supports("avx2") != 0;
}

// ---------------------------------------------------------------------------
// Eight-lane AVX-512 variant. SHA-512 is rotate- and bitselect-heavy, and
// AVX-512F turns exactly those into single instructions (vprorq for the
// sigmas, vpternlogq for Ch/Maj and the three-way xors), on 8 lanes at
// once — about 3x the per-lane throughput of the AVX2 kernel above.
// ---------------------------------------------------------------------------

// vpternlogq truth tables, indexed by (a, b, c) bits: Ch = a ? b : c,
// Maj = majority, Xor3 = parity.
constexpr int kTernChoose = 0xCA;
constexpr int kTernMajority = 0xE8;
constexpr int kTernXor3 = 0x96;

__attribute__((target("avx512f"))) inline __m512i BigSigma0x8(__m512i x) {
  return _mm512_ternarylogic_epi64(_mm512_ror_epi64(x, 28),
                                   _mm512_ror_epi64(x, 34),
                                   _mm512_ror_epi64(x, 39), kTernXor3);
}
__attribute__((target("avx512f"))) inline __m512i BigSigma1x8(__m512i x) {
  return _mm512_ternarylogic_epi64(_mm512_ror_epi64(x, 14),
                                   _mm512_ror_epi64(x, 18),
                                   _mm512_ror_epi64(x, 41), kTernXor3);
}
__attribute__((target("avx512f"))) inline __m512i SmallSigma0x8(__m512i x) {
  return _mm512_ternarylogic_epi64(_mm512_ror_epi64(x, 1),
                                   _mm512_ror_epi64(x, 8),
                                   _mm512_srli_epi64(x, 7), kTernXor3);
}
__attribute__((target("avx512f"))) inline __m512i SmallSigma1x8(__m512i x) {
  return _mm512_ternarylogic_epi64(_mm512_ror_epi64(x, 19),
                                   _mm512_ror_epi64(x, 61),
                                   _mm512_srli_epi64(x, 6), kTernXor3);
}

__attribute__((target("avx512f"))) void TransformX8(__m512i state[8],
                                                    const __m512i w_in[16]) {
  __m512i w[16];
  for (int t = 0; t < 16; ++t) w[t] = w_in[t];
  __m512i a = state[0];
  __m512i b = state[1];
  __m512i c = state[2];
  __m512i d = state[3];
  __m512i e = state[4];
  __m512i f = state[5];
  __m512i g = state[6];
  __m512i h = state[7];
  for (int t = 0; t < 80; ++t) {
    if (t >= 16) {
      w[t & 15] = _mm512_add_epi64(
          _mm512_add_epi64(SmallSigma1x8(w[(t - 2) & 15]), w[(t - 7) & 15]),
          _mm512_add_epi64(SmallSigma0x8(w[(t - 15) & 15]), w[t & 15]));
    }
    const __m512i ch = _mm512_ternarylogic_epi64(e, f, g, kTernChoose);
    const __m512i t1 = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_add_epi64(h, BigSigma1x8(e)), ch),
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(kK[t])),
                         w[t & 15]));
    const __m512i maj = _mm512_ternarylogic_epi64(a, b, c, kTernMajority);
    const __m512i t2 = _mm512_add_epi64(BigSigma0x8(a), maj);
    h = g;
    g = f;
    f = e;
    e = _mm512_add_epi64(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm512_add_epi64(t1, t2);
  }
  state[0] = _mm512_add_epi64(state[0], a);
  state[1] = _mm512_add_epi64(state[1], b);
  state[2] = _mm512_add_epi64(state[2], c);
  state[3] = _mm512_add_epi64(state[3], d);
  state[4] = _mm512_add_epi64(state[4], e);
  state[5] = _mm512_add_epi64(state[5], f);
  state[6] = _mm512_add_epi64(state[6], g);
  state[7] = _mm512_add_epi64(state[7], h);
}

bool DetectAvx512() {
  // RSSE_NO_AVX2 disables every vector kernel; RSSE_NO_AVX512 disables
  // only the 8-lane tier, so the 4-lane AVX2 path can be pinned by tests
  // and triaged on AVX-512 hosts.
  const char* off = std::getenv("RSSE_NO_AVX512");
  if (off != nullptr && off[0] != '\0' && off[0] != '0') return false;
  if (!DetectAvx2()) return false;
  return __builtin_cpu_supports("avx512f") != 0;
}

/// Word-major ("structure of arrays") lane blocks: `st[w][l]` is hash word
/// w of lane l, `w[t][l]` message word t of lane l. The vector tiers load
/// one word of every lane with a single unaligned load.
__attribute__((target("avx2"))) void CompressX4(uint64_t (*st)[4],
                                                const uint64_t (*w)[4]) {
  __m256i state[8];
  __m256i msg[16];
  for (int i = 0; i < 8; ++i) {
    state[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(st[i]));
  }
  for (int t = 0; t < 16; ++t) {
    msg[t] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w[t]));
  }
  TransformX4(state, msg);
  for (int i = 0; i < 8; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(st[i]), state[i]);
  }
}

__attribute__((target("avx512f"))) void CompressX8(uint64_t (*st)[8],
                                                   const uint64_t (*w)[8]) {
  __m512i state[8];
  __m512i msg[16];
  for (int i = 0; i < 8; ++i) state[i] = _mm512_loadu_si512(st[i]);
  for (int t = 0; t < 16; ++t) msg[t] = _mm512_loadu_si512(w[t]);
  TransformX8(state, msg);
  for (int i = 0; i < 8; ++i) _mm512_storeu_si512(st[i], state[i]);
}

// Whole-HMAC tiers: the inner compression, then the outer one on the
// inner digest without leaving the registers (see Hmac1).
__attribute__((target("avx2"))) void HmacX4(uint64_t (*st)[4],
                                            const uint64_t (*w)[4],
                                            const uint64_t (*outer)[4]) {
  __m256i state[8];
  __m256i msg[16];
  for (int i = 0; i < 8; ++i) {
    state[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(st[i]));
  }
  for (int t = 0; t < 16; ++t) {
    msg[t] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w[t]));
  }
  TransformX4(state, msg);
  for (int t = 0; t < 8; ++t) msg[t] = state[t];
  msg[8] = _mm256_set1_epi64x(static_cast<long long>(kPadWord));
  for (int t = 9; t < 15; ++t) msg[t] = _mm256_setzero_si256();
  msg[15] = _mm256_set1_epi64x(static_cast<long long>(kOuterBits));
  for (int i = 0; i < 8; ++i) {
    state[i] =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(outer[i]));
  }
  TransformX4(state, msg);
  for (int i = 0; i < 8; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(st[i]), state[i]);
  }
}

__attribute__((target("avx512f"))) void HmacX8(uint64_t (*st)[8],
                                               const uint64_t (*w)[8],
                                               const uint64_t (*outer)[8]) {
  __m512i state[8];
  __m512i msg[16];
  for (int i = 0; i < 8; ++i) state[i] = _mm512_loadu_si512(st[i]);
  for (int t = 0; t < 16; ++t) msg[t] = _mm512_loadu_si512(w[t]);
  TransformX8(state, msg);
  for (int t = 0; t < 8; ++t) msg[t] = state[t];
  msg[8] = _mm512_set1_epi64(static_cast<long long>(kPadWord));
  for (int t = 9; t < 15; ++t) msg[t] = _mm512_setzero_si512();
  msg[15] = _mm512_set1_epi64(static_cast<long long>(kOuterBits));
  for (int i = 0; i < 8; ++i) state[i] = _mm512_loadu_si512(outer[i]);
  TransformX8(state, msg);
  for (int i = 0; i < 8; ++i) _mm512_storeu_si512(st[i], state[i]);
}

#endif  // RSSE_SHA512_X4_COMPILED

/// One scalar compression through OpenSSL's SHA-512 block function (the
/// host's fastest single-stream code); the scalar tier and the lanes left
/// over after the vector groups.
void Compress1(uint64_t (*st)[1], const uint64_t (*w)[1]) {
  SHA512_CTX ctx{};
  for (int i = 0; i < 8; ++i) ctx.h[i] = st[i][0];
  uint8_t block[128];
  for (int t = 0; t < 16; ++t) StoreBe64(block + 8 * t, w[t][0]);
  SHA512_Transform(&ctx, block);
  for (int i = 0; i < 8; ++i) st[i][0] = ctx.h[i];
}

/// Scalar whole HMAC: the inner compression, then the outer one over the
/// inner digest words (message words verbatim — both sides big-endian).
void Hmac1(uint64_t (*st)[1], const uint64_t (*w)[1],
           const uint64_t (*outer)[1]) {
  Compress1(st, w);
  uint64_t w2[16][1] = {};
  for (int t = 0; t < 8; ++t) w2[t][0] = st[t][0];
  w2[8][0] = kPadWord;
  w2[15][0] = kOuterBits;
  for (int i = 0; i < 8; ++i) st[i][0] = outer[i][0];
  Compress1(st, w2);
}

/// The compression and whole-HMAC primitives of each tier, over lane
/// blocks `st[8][L]` (hash words) and `w[16][L]` (message words).
template <size_t L>
struct Tier;

template <>
struct Tier<1> {
  static constexpr auto kCompress = Compress1;
  static constexpr auto kHmac = Hmac1;
};

#ifdef RSSE_SHA512_X4_COMPILED
template <>
struct Tier<4> {
  static constexpr auto kCompress = CompressX4;
  static constexpr auto kHmac = HmacX4;
};

template <>
struct Tier<8> {
  static constexpr auto kCompress = CompressX8;
  static constexpr auto kHmac = HmacX8;
};
#endif

/// Writes the leading `out_len` MAC bytes of each lane (big-endian words).
template <size_t L>
void EmitLanes(const uint64_t (*st)[L], uint8_t* out, size_t out_len,
               size_t out_stride) {
  const size_t words = (out_len + 7) / 8;
  for (size_t l = 0; l < L; ++l) {
    uint8_t mac[64];
    for (size_t wd = 0; wd < words; ++wd) StoreBe64(mac + 8 * wd, st[wd][l]);
    std::memcpy(out + l * out_stride, mac, out_len);
  }
}

template <size_t L>
void Broadcast(const uint64_t words[8], uint64_t (*dst)[L]) {
  for (int i = 0; i < 8; ++i) {
    for (size_t l = 0; l < L; ++l) dst[i][l] = words[i];
  }
}

/// Fills a one-block inner message whose payload occupies the first
/// `payload_words` words: SHA-512 padding after it, bit length last.
template <size_t L>
void PadInnerBlock(uint64_t (*w)[L], int payload_words, uint64_t bits) {
  for (int t = payload_words; t < 16; ++t) {
    const uint64_t v = t == payload_words ? kPadWord : (t == 15 ? bits : 0);
    for (size_t l = 0; l < L; ++l) w[t][l] = v;
  }
}

/// The three kernel shapes over whole groups of `L` lanes. Each returns
/// how many items it processed (count rounded down to a multiple of L);
/// the caller finishes the rest on the scalar tier.
template <size_t L>
size_t CountersRun(const HmacSha512Midstates& key, uint64_t start,
                   size_t count, uint8_t* out, size_t out_len,
                   size_t out_stride) {
  uint64_t inner[8][L];
  uint64_t outer[8][L];
  Broadcast<L>(key.inner, inner);
  Broadcast<L>(key.outer, outer);
  uint64_t w[16][L];
  PadInnerBlock<L>(w, 1, kCounterBits);
  size_t i = 0;
  for (; i + L <= count; i += L) {
    for (size_t l = 0; l < L; ++l) w[0][l] = start + i + l;
    uint64_t st[8][L];
    std::memcpy(st, inner, sizeof(st));
    Tier<L>::kHmac(st, w, outer);
    EmitLanes<L>(st, out + i * out_stride, out_len, out_stride);
  }
  return i;
}

template <size_t L>
size_t Msg16Run(const HmacSha512Midstates& key, const uint8_t* msgs,
                size_t count, uint8_t* out, size_t out_len,
                size_t out_stride) {
  uint64_t inner[8][L];
  uint64_t outer[8][L];
  Broadcast<L>(key.inner, inner);
  Broadcast<L>(key.outer, outer);
  uint64_t w[16][L];
  PadInnerBlock<L>(w, 2, kMsg16Bits);
  size_t i = 0;
  for (; i + L <= count; i += L) {
    for (size_t l = 0; l < L; ++l) {
      w[0][l] = LoadBe64(msgs + (i + l) * 16);
      w[1][l] = LoadBe64(msgs + (i + l) * 16 + 8);
    }
    uint64_t st[8][L];
    std::memcpy(st, inner, sizeof(st));
    Tier<L>::kHmac(st, w, outer);
    EmitLanes<L>(st, out + i * out_stride, out_len, out_stride);
  }
  return i;
}

template <size_t L>
size_t Key16SetupRun(const uint8_t* keys, size_t key_stride, size_t count,
                     HmacSha512Midstates* midstates, uint8_t* out,
                     size_t out_len, size_t out_stride) {
  constexpr uint64_t kIpad = 0x3636363636363636ull;
  constexpr uint64_t kOpad = 0x5c5c5c5c5c5c5c5cull;
  // The counter-0 message block is the same for every lane and group.
  uint64_t label0[16][L];
  for (size_t l = 0; l < L; ++l) label0[0][l] = 0;
  PadInnerBlock<L>(label0, 1, kCounterBits);
  size_t i = 0;
  for (; i + L <= count; i += L) {
    // Key block XOR ipad / opad: the 16 key bytes, then zero padding
    // (which XORs to the pad byte itself).
    uint64_t inner[8][L];
    uint64_t outer[8][L];
    for (const auto& [st, pad] : {std::pair{inner, kIpad},
                                  std::pair{outer, kOpad}}) {
      uint64_t w[16][L];
      for (size_t l = 0; l < L; ++l) {
        const uint8_t* k = keys + (i + l) * key_stride;
        w[0][l] = LoadBe64(k) ^ pad;
        w[1][l] = LoadBe64(k + 8) ^ pad;
      }
      for (int t = 2; t < 16; ++t) {
        for (size_t l = 0; l < L; ++l) w[t][l] = pad;
      }
      for (int h = 0; h < 8; ++h) {
        for (size_t l = 0; l < L; ++l) st[h][l] = kIv[h];
      }
      Tier<L>::kCompress(st, w);
    }
    for (size_t l = 0; l < L; ++l) {
      for (int h = 0; h < 8; ++h) {
        midstates[i + l].inner[h] = inner[h][l];
        midstates[i + l].outer[h] = outer[h][l];
      }
    }
    // F(key, BE64(0)) under the fresh midstates.
    Tier<L>::kHmac(inner, label0, outer);
    EmitLanes<L>(inner, out + i * out_stride, out_len, out_stride);
  }
  return i;
}

/// Runs the widest tier the host has over whole lane groups, then the
/// scalar tier over what is left. `run(lanes, first)` processes items
/// from index `first` on and returns the index it stopped at.
template <typename RunFn>
void DispatchTiers(size_t count, RunFn&& run) {
  size_t done = 0;
#ifdef RSSE_SHA512_X4_COMPILED
  switch (HmacSha512CounterLanes()) {
    case 8:
      done = run(std::integral_constant<size_t, 8>{}, done);
      break;
    case 4:
      done = run(std::integral_constant<size_t, 4>{}, done);
      break;
    default:
      break;
  }
#endif
  if (done < count) run(std::integral_constant<size_t, 1>{}, done);
}

}  // namespace

size_t HmacSha512CounterLanes() {
#ifdef RSSE_SHA512_X4_COMPILED
  static const size_t lanes = DetectAvx512() ? 8 : (DetectAvx2() ? 4 : 0);
  return lanes;
#else
  return 0;
#endif
}

HmacSha512Midstates HmacSha512KeyMidstates(const uint8_t* key,
                                           size_t key_len) {
  uint8_t block[128] = {0};
  if (key_len > sizeof(block)) {
    SHA512(key, key_len, block);
  } else if (key_len > 0) {
    std::memcpy(block, key, key_len);
  }
  HmacSha512Midstates mid;
  for (const auto& [dst, pad] : {std::pair{mid.inner, uint8_t{0x36}},
                                 std::pair{mid.outer, uint8_t{0x5c}}}) {
    uint64_t st[8][1];
    uint64_t w[16][1];
    for (int t = 0; t < 16; ++t) {
      uint8_t padded[8];
      for (int b = 0; b < 8; ++b) {
        padded[b] = static_cast<uint8_t>(block[8 * t + b] ^ pad);
      }
      w[t][0] = LoadBe64(padded);
    }
    for (int h = 0; h < 8; ++h) st[h][0] = kIv[h];
    Compress1(st, w);
    for (int h = 0; h < 8; ++h) dst[h] = st[h][0];
  }
  return mid;
}

void HmacSha512Counters(const HmacSha512Midstates& key, uint64_t start,
                        size_t count, uint8_t* out, size_t out_len,
                        size_t out_stride) {
  DispatchTiers(count, [&](auto lanes, size_t first) {
    constexpr size_t L = decltype(lanes)::value;
    return first + CountersRun<L>(
                       key, start + first, count - first,
                       out + first * out_stride, out_len, out_stride);
  });
}

void HmacSha512Msg16(const HmacSha512Midstates& key, const uint8_t* msgs,
                     size_t count, uint8_t* out, size_t out_len,
                     size_t out_stride) {
  DispatchTiers(count, [&](auto lanes, size_t first) {
    constexpr size_t L = decltype(lanes)::value;
    return first + Msg16Run<L>(
                       key, msgs + first * 16, count - first,
                       out + first * out_stride, out_len, out_stride);
  });
}

void HmacSha512Key16Setup(const uint8_t* keys, size_t key_stride,
                          size_t count, HmacSha512Midstates* midstates,
                          uint8_t* out, size_t out_len, size_t out_stride) {
  DispatchTiers(count, [&](auto lanes, size_t first) {
    constexpr size_t L = decltype(lanes)::value;
    return first + Key16SetupRun<L>(
                       keys + first * key_stride, key_stride, count - first,
                       midstates + first, out + first * out_stride, out_len,
                       out_stride);
  });
}

}  // namespace rsse::crypto
