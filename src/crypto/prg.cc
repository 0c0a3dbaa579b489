#include "crypto/prg.h"

#include <openssl/evp.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "crypto/hmac_prf.h"
#include "crypto/sha512_x4.h"

namespace rsse::crypto {

namespace {

[[noreturn]] void DiePrgFailure(const char* what) {
  std::fprintf(stderr, "rsse: GGM PRG backend failure: %s\n", what);
  std::abort();
}

// ---------------------------------------------------------------------------
// HMAC backend. G must be a public function (the server expands delegated
// GGM seeds), so the MAC key carries no secret; all entropy is in the seed,
// which is the HMAC message. One shared pre-keyed Prf (stack-state
// evaluations are thread-safe) makes expansion ~2x faster than one-shot
// HMAC.
// ---------------------------------------------------------------------------

const Prf& PublicHmacPrf() {
  static const Prf* prf = new Prf(ToBytes("rsse-ggm-public-expansion-key"));
  return *prf;
}

void HmacExpandInto(const uint8_t* seed, uint8_t* left, uint8_t* right) {
  uint8_t mac[Prf::kMaxOutputBytes];
  if (!PublicHmacPrf().EvalInto(ConstByteSpan(seed, kLambdaBytes),
                                ByteSpan(mac, sizeof(mac)))) {
    DiePrgFailure("HMAC evaluation failed");
  }
  std::memcpy(left, mac, kLambdaBytes);
  std::memcpy(right, mac + kLambdaBytes, kLambdaBytes);
}

/// The public key's midstates for the multi-lane frontier kernel.
const HmacSha512Midstates& PublicHmacMidstates() {
  static const HmacSha512Midstates mid = [] {
    const Bytes key = ToBytes("rsse-ggm-public-expansion-key");
    return HmacSha512KeyMidstates(key.data(), key.size());
  }();
  return mid;
}

// ---------------------------------------------------------------------------
// AES backend: fixed-key single-permutation Matyas-Meyer-Oseas,
// G_b(s) = AES_K(s ⊕ c_b) ⊕ s ⊕ c_b. The key schedule is computed once per
// thread; each expansion is one two-block ECB encryption (AES-NI via EVP).
// ---------------------------------------------------------------------------

// Public fixed key and block tweaks; arbitrary distinct constants.
constexpr uint8_t kAesFixedKey[16] = {'r', 's', 's', 'e', '-', 'g', 'g', 'm',
                                      '-', 'a', 'e', 's', '-', 'k', 'e', 'y'};
constexpr uint8_t kTweak0 = 0x00;
constexpr uint8_t kTweak1 = 0xff;

/// Owns the per-thread fixed-key context so it is released on thread exit.
/// thread_local IS the synchronization here: each thread initializes and
/// uses only its own context, so no lock (and no capability annotation)
/// applies — sharing one EVP_CIPHER_CTX across threads would be a race
/// inside OpenSSL regardless of locking discipline at this layer.
struct AesCtxHolder {
  EVP_CIPHER_CTX* ctx = nullptr;

  ~AesCtxHolder() {
    if (ctx != nullptr) EVP_CIPHER_CTX_free(ctx);
  }
};

EVP_CIPHER_CTX* ThreadAesCtx() {
  thread_local AesCtxHolder holder;
  if (holder.ctx == nullptr) {
    holder.ctx = EVP_CIPHER_CTX_new();
    if (holder.ctx == nullptr ||
        EVP_EncryptInit_ex(holder.ctx, EVP_aes_128_ecb(), nullptr,
                           kAesFixedKey, nullptr) != 1) {
      DiePrgFailure("AES-128-ECB init failed");
    }
    EVP_CIPHER_CTX_set_padding(holder.ctx, 0);
  }
  return holder.ctx;
}

void AesExpandInto(const uint8_t* seed, uint8_t* left, uint8_t* right) {
  uint8_t in[2 * kLambdaBytes];
  uint8_t out[2 * kLambdaBytes];
  for (size_t i = 0; i < kLambdaBytes; ++i) {
    in[i] = static_cast<uint8_t>(seed[i] ^ kTweak0);
    in[kLambdaBytes + i] = static_cast<uint8_t>(seed[i] ^ kTweak1);
  }
  int len = 0;
  if (EVP_EncryptUpdate(ThreadAesCtx(), out, &len, in, sizeof(in)) != 1 ||
      len != static_cast<int>(sizeof(in))) {
    DiePrgFailure("AES-128-ECB encryption failed");
  }
  // Feed-forward (Davies-Meyer/MMO) makes the permutation one-way: without
  // it, the server could invert AES_K and recover parent seeds from
  // delegated children.
  for (size_t i = 0; i < kLambdaBytes; ++i) {
    out[i] ^= in[i];
    out[kLambdaBytes + i] ^= in[kLambdaBytes + i];
  }
  std::memcpy(left, out, kLambdaBytes);
  std::memcpy(right, out + kLambdaBytes, kLambdaBytes);
}

// Parents per batched frontier expansion: 256 parents = 512 AES blocks =
// 8 KiB per buffer, small enough for the stack, large enough that the EVP
// dispatch overhead (the dominant cost of two-block calls) amortizes away.
// The HMAC backend stages the same chunks for its multi-lane kernel.
constexpr size_t kFrontierChunk = 256;

/// Expands `count` <= kFrontierChunk parent seeds into their 2·count
/// children with a single multi-block EVP_EncryptUpdate. `children` may
/// overlap `parents`: the parents are staged into a private buffer before
/// anything is written.
void AesExpandFrontierChunk(const uint8_t* parents, size_t count,
                            uint8_t* children) {
  uint8_t in[2 * kFrontierChunk * kLambdaBytes];
  uint8_t out[2 * kFrontierChunk * kLambdaBytes];
  for (size_t j = 0; j < count; ++j) {
    const uint8_t* s = parents + j * kLambdaBytes;
    uint8_t* left = in + 2 * j * kLambdaBytes;
    uint8_t* right = left + kLambdaBytes;
    for (size_t b = 0; b < kLambdaBytes; ++b) {
      left[b] = static_cast<uint8_t>(s[b] ^ kTweak0);
      right[b] = static_cast<uint8_t>(s[b] ^ kTweak1);
    }
  }
  const int total = static_cast<int>(2 * count * kLambdaBytes);
  int len = 0;
  if (EVP_EncryptUpdate(ThreadAesCtx(), out, &len, in, total) != 1 ||
      len != total) {
    DiePrgFailure("AES-128-ECB batched encryption failed");
  }
  // Same MMO feed-forward as the per-node path; outputs are bit-identical.
  for (int b = 0; b < total; ++b) out[b] ^= in[b];
  std::memcpy(children, out, static_cast<size_t>(total));
}

// ---------------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------------

int InitialBackend() {
  const char* env = std::getenv("RSSE_GGM_PRG");
  if (env != nullptr && (std::strcmp(env, "aes") == 0 ||
                         std::strcmp(env, "AES") == 0)) {
    return static_cast<int>(GgmPrg::Backend::kAes);
  }
  return static_cast<int>(GgmPrg::Backend::kHmac);
}

std::atomic<int>& BackendFlag() {
  static std::atomic<int> flag(InitialBackend());
  return flag;
}

}  // namespace

GgmPrg::Backend GgmPrg::backend() {
  return static_cast<Backend>(BackendFlag().load(std::memory_order_relaxed));
}

void GgmPrg::SetBackend(Backend b) {
  BackendFlag().store(static_cast<int>(b), std::memory_order_relaxed);
}

void GgmPrg::ExpandInto(const uint8_t* seed, uint8_t* left, uint8_t* right) {
  if (backend() == Backend::kAes) {
    AesExpandInto(seed, left, right);
  } else {
    HmacExpandInto(seed, left, right);
  }
}

void GgmPrg::ExpandFrontierInPlace(uint8_t* buf, size_t count) {
  // Walk the frontier right to left in chunks: the chunk [i0, i0 + cnt)
  // writes its children to [2·i0, 2·(i0 + cnt)), which never touches the
  // unprocessed parents below i0 (2·i0 >= i0); parents inside the chunk
  // are staged into a private buffer before anything is written.
  const bool aes = backend() == Backend::kAes;
  size_t i0 = count;
  while (i0 > 0) {
    const size_t cnt = std::min(kFrontierChunk, i0);
    i0 -= cnt;
    if (aes) {
      AesExpandFrontierChunk(buf + i0 * kLambdaBytes, cnt,
                             buf + 2 * i0 * kLambdaBytes);
    } else {
      // HMAC: one 64-byte MAC per parent, 8 or 4 parents per pair of
      // vector compressions; G0 || G1 is the MAC's leading 32 bytes, so
      // both children land in place with one 32-byte write.
      uint8_t parents[kFrontierChunk * kLambdaBytes];
      std::memcpy(parents, buf + i0 * kLambdaBytes, cnt * kLambdaBytes);
      HmacSha512Msg16(PublicHmacMidstates(), parents, cnt,
                      buf + 2 * i0 * kLambdaBytes, 2 * kLambdaBytes,
                      2 * kLambdaBytes);
    }
  }
}

void GgmPrg::GbInto(const uint8_t* seed, int bit, uint8_t* out) {
  uint8_t left[kLambdaBytes];
  uint8_t right[kLambdaBytes];
  ExpandInto(seed, left, right);
  std::memcpy(out, bit == 0 ? left : right, kLambdaBytes);
}

std::pair<Bytes, Bytes> GgmPrg::Expand(const Bytes& seed) {
  if (seed.size() != kLambdaBytes) DiePrgFailure("seed must be λ bytes");
  Bytes left(kLambdaBytes);
  Bytes right(kLambdaBytes);
  ExpandInto(seed.data(), left.data(), right.data());
  return {std::move(left), std::move(right)};
}

Bytes GgmPrg::G0(const Bytes& seed) { return Expand(seed).first; }

Bytes GgmPrg::G1(const Bytes& seed) { return Expand(seed).second; }

Bytes GgmPrg::Gb(const Bytes& seed, int bit) {
  if (seed.size() != kLambdaBytes) DiePrgFailure("seed must be λ bytes");
  Bytes out(kLambdaBytes);
  GbInto(seed.data(), bit, out.data());
  return out;
}

}  // namespace rsse::crypto
