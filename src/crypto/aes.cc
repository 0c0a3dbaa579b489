#include "crypto/aes.h"

#include <openssl/evp.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "crypto/random.h"

#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define RSSE_AESNI_COMPILED 1
#include <immintrin.h>
#endif

namespace rsse::crypto {

namespace {

// ---------------------------------------------------------------------------
// AES-NI decryption for the batch API. A served Constant query decrypts
// one entry per hit leaf, each under a different key, so the per-call cost
// of an EVP key schedule (a provider fetch plus init, several µs) dwarfs
// the one block of work; expanding the key with AESKEYGENASSIST costs tens
// of nanoseconds. RSSE_NO_AVX2=1, the switch that sends every
// hand-vectorized kernel to its fallback, routes decryption through EVP.
// ---------------------------------------------------------------------------

#ifdef RSSE_AESNI_COMPILED

template <int kRcon>
__attribute__((target("aes,sse2"))) inline __m128i ExpandKeyStep(__m128i key) {
  const __m128i t =
      _mm_shuffle_epi32(_mm_aeskeygenassist_si128(key, kRcon), 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, t);
}

/// Decryption round keys of the last key seen on this thread: consecutive
/// batches of one keyword chain reuse the schedule, as the EVP path's
/// cached context does.
struct AesNiDecryptSchedule {
  uint8_t key[Aes128Cbc::kKeyBytes] = {};
  __m128i dk[11];
  bool valid = false;
};

/// Decrypts `blocks` 16-byte blocks of `buf` in place (AES-128-ECB).
__attribute__((target("aes,sse2"))) void AesNiDecryptBlocks(
    const uint8_t* key, uint8_t* buf, size_t blocks) {
  thread_local AesNiDecryptSchedule schedule;
  if (!schedule.valid ||
      std::memcmp(schedule.key, key, Aes128Cbc::kKeyBytes) != 0) {
    __m128i ek[11];
    ek[0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
    ek[1] = ExpandKeyStep<0x01>(ek[0]);
    ek[2] = ExpandKeyStep<0x02>(ek[1]);
    ek[3] = ExpandKeyStep<0x04>(ek[2]);
    ek[4] = ExpandKeyStep<0x08>(ek[3]);
    ek[5] = ExpandKeyStep<0x10>(ek[4]);
    ek[6] = ExpandKeyStep<0x20>(ek[5]);
    ek[7] = ExpandKeyStep<0x40>(ek[6]);
    ek[8] = ExpandKeyStep<0x80>(ek[7]);
    ek[9] = ExpandKeyStep<0x1b>(ek[8]);
    ek[10] = ExpandKeyStep<0x36>(ek[9]);
    // Equivalent inverse cipher: round keys reversed, InvMixColumns
    // applied to the middle nine.
    schedule.dk[0] = ek[10];
    for (int r = 1; r < 10; ++r) {
      schedule.dk[r] = _mm_aesimc_si128(ek[10 - r]);
    }
    schedule.dk[10] = ek[0];
    std::memcpy(schedule.key, key, Aes128Cbc::kKeyBytes);
    schedule.valid = true;
  }
  // Round keys in locals: stores through `buf` (a byte pointer) may alias
  // anything, which would otherwise force a reload of every key per round.
  __m128i dk[11];
  for (int r = 0; r < 11; ++r) dk[r] = schedule.dk[r];

  constexpr size_t kWay = 8;  // blocks in flight: hides AESDEC latency
  size_t b = 0;
  for (; b + kWay <= blocks; b += kWay) {
    __m128i x[kWay];
    for (size_t j = 0; j < kWay; ++j) {
      x[j] = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 16 * (b + j))),
          dk[0]);
    }
    for (int r = 1; r < 10; ++r) {
      for (size_t j = 0; j < kWay; ++j) x[j] = _mm_aesdec_si128(x[j], dk[r]);
    }
    for (size_t j = 0; j < kWay; ++j) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(buf + 16 * (b + j)),
                       _mm_aesdeclast_si128(x[j], dk[10]));
    }
  }
  for (; b < blocks; ++b) {
    __m128i x = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 16 * b)),
        dk[0]);
    for (int r = 1; r < 10; ++r) x = _mm_aesdec_si128(x, dk[r]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(buf + 16 * b),
                     _mm_aesdeclast_si128(x, dk[10]));
  }
}

bool AesNiEnabled() {
  static const bool enabled = [] {
    const char* off = std::getenv("RSSE_NO_AVX2");
    if (off != nullptr && off[0] != '\0' && off[0] != '0') return false;
    return __builtin_cpu_supports("aes") != 0 &&
           __builtin_cpu_supports("sse2") != 0;
  }();
  return enabled;
}

#else

bool AesNiEnabled() { return false; }

void AesNiDecryptBlocks(const uint8_t*, uint8_t*, size_t) { std::abort(); }

#endif  // RSSE_AESNI_COMPILED

/// AES-128-ECB fetched once: passing EVP_aes_128_ecb() to an init makes
/// OpenSSL 3 fetch the provider implementation again on every call.
/// Intentionally never freed (process-lifetime singleton).
const EVP_CIPHER* Aes128Ecb() {
  static EVP_CIPHER* cipher = EVP_CIPHER_fetch(nullptr, "AES-128-ECB", nullptr);
  return cipher;
}

/// Per-thread cipher context plus the key its schedule was computed for.
/// When consecutive calls reuse the key (every counter probe of a keyword
/// does), re-init only sets the IV and skips the key schedule; a failed
/// operation drops the cache so the context is rebuilt from scratch.
/// The destructor releases the context when its thread exits (search
/// workers are short-lived threads).
struct CachedCipherCtx {
  EVP_CIPHER_CTX* ctx = nullptr;
  uint8_t key[Aes128Cbc::kKeyBytes] = {};
  bool keyed = false;

  ~CachedCipherCtx() {
    if (ctx != nullptr) EVP_CIPHER_CTX_free(ctx);
  }
};

CachedCipherCtx& ThreadEncryptCtx() {
  thread_local CachedCipherCtx cached;
  return cached;
}

CachedCipherCtx& ThreadDecryptCtx() {
  thread_local CachedCipherCtx cached;
  return cached;
}

/// Separate contexts for the batch API's raw AES-ECB passes (the CBC
/// chaining around them is scalar code): an ECB context never carries
/// stream state between multiples of the block size, so under an unchanged
/// key consecutive batches skip EVP init entirely.
CachedCipherCtx& ThreadEcbEncryptCtx() {
  thread_local CachedCipherCtx cached;
  return cached;
}

CachedCipherCtx& ThreadEcbDecryptCtx() {
  thread_local CachedCipherCtx cached;
  return cached;
}

/// Initializes `cached` as a padding-free AES-128-ECB context for `key`,
/// reusing the cached key schedule when possible.
bool InitCachedEcb(CachedCipherCtx& cached, ConstByteSpan key, bool encrypt) {
  if (cached.ctx == nullptr) {
    cached.ctx = EVP_CIPHER_CTX_new();
    if (cached.ctx == nullptr) return false;
  }
  if (cached.keyed &&
      std::memcmp(cached.key, key.data(), Aes128Cbc::kKeyBytes) == 0) {
    return true;  // ECB: no per-call state to reset
  }
  auto init = encrypt ? EVP_EncryptInit_ex : EVP_DecryptInit_ex;
  if (Aes128Ecb() == nullptr ||
      init(cached.ctx, Aes128Ecb(), nullptr, key.data(), nullptr) != 1) {
    cached.keyed = false;
    return false;
  }
  EVP_CIPHER_CTX_set_padding(cached.ctx, 0);
  std::memcpy(cached.key, key.data(), Aes128Cbc::kKeyBytes);
  cached.keyed = true;
  return true;
}

/// Entries processed per batched column pass: bounds the stack gather
/// buffer (4 KiB) while amortizing the EVP dispatch overhead.
constexpr size_t kManyChunk = 256;

inline void Xor16(uint8_t* dst, const uint8_t* src) {
  uint64_t a;
  uint64_t b;
  std::memcpy(&a, dst, 8);
  std::memcpy(&b, src, 8);
  a ^= b;
  std::memcpy(dst, &a, 8);
  std::memcpy(&a, dst + 8, 8);
  std::memcpy(&b, src + 8, 8);
  a ^= b;
  std::memcpy(dst + 8, &a, 8);
}

/// Batched CBC encryption core. Assumes argument validation is done and
/// that block 0 of every entry's `out` slot already holds its IV; fills
/// the body blocks. Column-wise: column r gathers (plaintext block r XOR
/// previous ciphertext block) of every entry that has a block r into one
/// contiguous buffer, encrypts it with a single multi-block ECB
/// EVP_EncryptUpdate, and scatters the results — for the dominant
/// single-block-entry case that is one EVP call per kManyChunk entries.
Status EncryptManyCore(ConstByteSpan key, ConstByteSpan plaintexts,
                       std::span<const uint32_t> plain_lens, ByteSpan out) {
  constexpr size_t kB = Aes128Cbc::kBlockBytes;
  CachedCipherCtx& cached = ThreadEcbEncryptCtx();
  if (!InitCachedEcb(cached, key, /*encrypt=*/true)) {
    return Status::Internal("AES-ECB encrypt init failed");
  }
  const size_t n = plain_lens.size();
  size_t base = 0;
  size_t pt_base = 0;
  size_t ct_base = 0;
  while (base < n) {
    const size_t chunk = std::min(kManyChunk, n - base);
    // Chunk-local absolute offsets of each entry's plaintext/ciphertext.
    size_t pt_off[kManyChunk];
    size_t ct_off[kManyChunk];
    size_t pt_at = pt_base;
    size_t ct_at = ct_base;
    for (size_t j = 0; j < chunk; ++j) {
      pt_off[j] = pt_at;
      ct_off[j] = ct_at;
      pt_at += plain_lens[base + j];
      ct_at += Aes128Cbc::CiphertextSize(plain_lens[base + j]);
    }
    uint8_t gather[kManyChunk * Aes128Cbc::kBlockBytes];
    uint16_t owner[kManyChunk];
    for (size_t col = 0;; ++col) {
      size_t m = 0;
      for (size_t j = 0; j < chunk; ++j) {
        const size_t len = plain_lens[base + j];
        const size_t blocks = len / kB + 1;  // PKCS#7: always >= 1
        if (col >= blocks) continue;
        uint8_t* dst = gather + m * kB;
        const size_t pos = col * kB;
        if (col + 1 < blocks) {
          std::memcpy(dst, plaintexts.data() + pt_off[j] + pos, kB);
        } else {
          const size_t rem = len - pos;
          std::memcpy(dst, plaintexts.data() + pt_off[j] + pos, rem);
          std::memset(dst + rem, static_cast<int>(kB - rem), kB - rem);
        }
        // CBC chain: previous ciphertext block of the entry — its IV for
        // the first body block (the IV is block 0 of the entry slot).
        Xor16(dst, out.data() + ct_off[j] + col * kB);
        owner[m++] = static_cast<uint16_t>(j);
      }
      if (m == 0) break;
      int enc_len = 0;
      if (EVP_EncryptUpdate(cached.ctx, gather, &enc_len, gather,
                            static_cast<int>(m * kB)) != 1 ||
          enc_len != static_cast<int>(m * kB)) {
        cached.keyed = false;
        EVP_CIPHER_CTX_reset(cached.ctx);
        return Status::Internal("AES-ECB batch encryption failed");
      }
      for (size_t i = 0; i < m; ++i) {
        std::memcpy(out.data() + ct_off[owner[i]] + (col + 1) * kB,
                    gather + i * kB, kB);
      }
    }
    base += chunk;
    pt_base = pt_at;
    ct_base = ct_at;
  }
  return Status::Ok();
}

/// Shared validation for the batch encrypt entry points. Returns the total
/// ciphertext size, or 0 with `*status` set.
size_t ValidateMany(ConstByteSpan key, ConstByteSpan plaintexts,
                    std::span<const uint32_t> plain_lens, ByteSpan out,
                    Status* status) {
  if (key.size() != Aes128Cbc::kKeyBytes) {
    *status = Status::InvalidArgument("AES-128 key must be 16 bytes");
    return 0;
  }
  size_t pt_total = 0;
  size_t ct_total = 0;
  for (const uint32_t len : plain_lens) {
    pt_total += len;
    ct_total += Aes128Cbc::CiphertextSize(len);
  }
  if (plaintexts.size() != pt_total) {
    *status =
        Status::InvalidArgument("plaintext arena does not match the lengths");
    return 0;
  }
  if (out.size() < ct_total) {
    *status = Status::InvalidArgument("AES-CBC output buffer too small");
    return 0;
  }
  *status = Status::Ok();
  return ct_total;
}

/// Initializes `cached` for `key`/`iv` in the given direction, reusing the
/// cached key schedule when possible. Returns false on OpenSSL failure.
bool InitCached(CachedCipherCtx& cached, ConstByteSpan key, const uint8_t* iv,
                bool encrypt) {
  if (cached.ctx == nullptr) {
    cached.ctx = EVP_CIPHER_CTX_new();
    if (cached.ctx == nullptr) return false;
  }
  auto init = encrypt ? EVP_EncryptInit_ex : EVP_DecryptInit_ex;
  if (cached.keyed &&
      std::memcmp(cached.key, key.data(), Aes128Cbc::kKeyBytes) == 0) {
    if (init(cached.ctx, nullptr, nullptr, nullptr, iv) == 1) return true;
    cached.keyed = false;  // fall through to a full re-init
  }
  if (init(cached.ctx, EVP_aes_128_cbc(), nullptr, key.data(), iv) != 1) {
    cached.keyed = false;
    return false;
  }
  std::memcpy(cached.key, key.data(), Aes128Cbc::kKeyBytes);
  cached.keyed = true;
  return true;
}

}  // namespace

Status Aes128Cbc::EncryptWithIvInto(ConstByteSpan key, ConstByteSpan iv,
                                    ConstByteSpan plaintext, ByteSpan out,
                                    size_t* written) {
  if (key.size() != kKeyBytes) {
    return Status::InvalidArgument("AES-128 key must be 16 bytes");
  }
  if (iv.size() != kBlockBytes) {
    return Status::InvalidArgument("AES-CBC IV must be 16 bytes");
  }
  if (out.size() < CiphertextSize(plaintext.size())) {
    return Status::InvalidArgument("AES-CBC output buffer too small");
  }
  CachedCipherCtx& cached = ThreadEncryptCtx();
  if (!InitCached(cached, key, iv.data(), /*encrypt=*/true)) {
    return Status::Internal("AES-CBC encrypt init failed");
  }
  std::memcpy(out.data(), iv.data(), kBlockBytes);
  int len1 = 0;
  int len2 = 0;
  if (EVP_EncryptUpdate(cached.ctx, out.data() + kBlockBytes, &len1,
                        plaintext.data(),
                        static_cast<int>(plaintext.size())) != 1 ||
      EVP_EncryptFinal_ex(cached.ctx, out.data() + kBlockBytes + len1,
                          &len2) != 1) {
    cached.keyed = false;
    EVP_CIPHER_CTX_reset(cached.ctx);
    return Status::Internal("AES-CBC encryption failed");
  }
  *written = kBlockBytes + static_cast<size_t>(len1 + len2);
  return Status::Ok();
}

Status Aes128Cbc::EncryptInto(ConstByteSpan key, ConstByteSpan plaintext,
                              ByteSpan out, size_t* written) {
  uint8_t iv[kBlockBytes];
  SecureRandomInto(iv);
  return EncryptWithIvInto(key, iv, plaintext, out, written);
}

Status Aes128Cbc::DecryptInto(ConstByteSpan key, ConstByteSpan ciphertext,
                              ByteSpan out, size_t* written) {
  if (key.size() != kKeyBytes) {
    return Status::InvalidArgument("AES-128 key must be 16 bytes");
  }
  if (ciphertext.size() < 2 * kBlockBytes ||
      (ciphertext.size() - kBlockBytes) % kBlockBytes != 0) {
    return Status::InvalidArgument("malformed AES-CBC ciphertext");
  }
  const size_t body_len = ciphertext.size() - kBlockBytes;
  if (out.size() < body_len) {
    return Status::InvalidArgument("AES-CBC output buffer too small");
  }
  CachedCipherCtx& cached = ThreadDecryptCtx();
  if (!InitCached(cached, key, ciphertext.data(), /*encrypt=*/false)) {
    return Status::Internal("AES-CBC decrypt init failed");
  }
  int len1 = 0;
  int len2 = 0;
  if (EVP_DecryptUpdate(cached.ctx, out.data(), &len1,
                        ciphertext.data() + kBlockBytes,
                        static_cast<int>(body_len)) != 1 ||
      EVP_DecryptFinal_ex(cached.ctx, out.data() + len1, &len2) != 1) {
    // Wrong key or padding: expected during SSE search under a foreign
    // token. Drop the cached schedule; the context state is undefined.
    cached.keyed = false;
    EVP_CIPHER_CTX_reset(cached.ctx);
    return Status::InvalidArgument(
        "AES-CBC decryption failed (bad key or padding)");
  }
  *written = static_cast<size_t>(len1 + len2);
  return Status::Ok();
}

Result<Bytes> Aes128Cbc::EncryptWithIv(const Bytes& key, const Bytes& iv,
                                       const Bytes& plaintext) {
  Bytes out(CiphertextSize(plaintext.size()));
  size_t written = 0;
  Status s = EncryptWithIvInto(key, iv, plaintext, out, &written);
  if (!s.ok()) return s;
  out.resize(written);
  return out;
}

Result<Bytes> Aes128Cbc::Encrypt(const Bytes& key, const Bytes& plaintext) {
  Bytes out(CiphertextSize(plaintext.size()));
  size_t written = 0;
  Status s = EncryptInto(key, plaintext, out, &written);
  if (!s.ok()) return s;
  out.resize(written);
  return out;
}

Result<Bytes> Aes128Cbc::Decrypt(const Bytes& key, const Bytes& ciphertext) {
  if (ciphertext.size() < 2 * kBlockBytes) {
    return Status::InvalidArgument("malformed AES-CBC ciphertext");
  }
  Bytes out(ciphertext.size() - kBlockBytes);
  size_t written = 0;
  Status s = DecryptInto(key, ciphertext, out, &written);
  if (!s.ok()) return s;
  out.resize(written);
  return out;
}

size_t Aes128Cbc::CiphertextSize(size_t plaintext_len) {
  return kBlockBytes + (plaintext_len / kBlockBytes + 1) * kBlockBytes;
}

Status Aes128Cbc::EncryptManyWithIvsInto(ConstByteSpan key, ConstByteSpan ivs,
                                         ConstByteSpan plaintexts,
                                         std::span<const uint32_t> plain_lens,
                                         ByteSpan out, size_t* written) {
  Status status;
  const size_t ct_total = ValidateMany(key, plaintexts, plain_lens, out,
                                       &status);
  if (!status.ok()) return status;
  if (ivs.size() != plain_lens.size() * kBlockBytes) {
    return Status::InvalidArgument("need one 16-byte IV per entry");
  }
  size_t ct_off = 0;
  for (size_t i = 0; i < plain_lens.size(); ++i) {
    std::memcpy(out.data() + ct_off, ivs.data() + i * kBlockBytes,
                kBlockBytes);
    ct_off += CiphertextSize(plain_lens[i]);
  }
  status = EncryptManyCore(key, plaintexts, plain_lens, out);
  if (!status.ok()) return status;
  *written = ct_total;
  return Status::Ok();
}

Status Aes128Cbc::EncryptManyInto(ConstByteSpan key, ConstByteSpan plaintexts,
                                  std::span<const uint32_t> plain_lens,
                                  ByteSpan out, size_t* written) {
  Status status;
  const size_t ct_total = ValidateMany(key, plaintexts, plain_lens, out,
                                       &status);
  if (!status.ok()) return status;
  const size_t n = plain_lens.size();
  // One pooled draw for every IV, staged at the front of `out` (which is
  // always large enough: each entry contributes >= 32 bytes), then
  // scattered back to front into the entry headers. Entry i's header lies
  // at offset >= 32 i >= 16 i + 16, so the scatter never overwrites a
  // not-yet-moved IV.
  SecureRandomInto(ByteSpan(out.data(), n * kBlockBytes));
  size_t ct_off = ct_total;
  for (size_t i = n; i-- > 0;) {
    ct_off -= CiphertextSize(plain_lens[i]);
    if (ct_off != i * kBlockBytes) {
      std::memmove(out.data() + ct_off, out.data() + i * kBlockBytes,
                   kBlockBytes);
    }
  }
  status = EncryptManyCore(key, plaintexts, plain_lens, out);
  if (!status.ok()) return status;
  *written = ct_total;
  return Status::Ok();
}

Status Aes128Cbc::DecryptManyInto(ConstByteSpan key, ConstByteSpan cts,
                                  std::span<const uint32_t> ct_lens,
                                  ByteSpan out,
                                  std::span<uint32_t> plain_lens) {
  if (key.size() != kKeyBytes) {
    return Status::InvalidArgument("AES-128 key must be 16 bytes");
  }
  const size_t n = ct_lens.size();
  if (plain_lens.size() < n) {
    return Status::InvalidArgument("plain_lens must cover every entry");
  }
  size_t ct_total = 0;
  for (const uint32_t len : ct_lens) {
    if (len < 2 * kBlockBytes || len % kBlockBytes != 0) {
      return Status::InvalidArgument("malformed AES-CBC ciphertext");
    }
    ct_total += len;
  }
  if (cts.size() != ct_total) {
    return Status::InvalidArgument("ciphertext arena does not match lengths");
  }
  const size_t body_total = ct_total - n * kBlockBytes;
  if (out.size() < body_total) {
    return Status::InvalidArgument("AES-CBC output buffer too small");
  }
  // Gather every body block (skipping the IVs) into `out`, packed.
  size_t ct_off = 0;
  size_t out_off = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t body = ct_lens[i] - kBlockBytes;
    std::memcpy(out.data() + out_off, cts.data() + ct_off + kBlockBytes,
                body);
    ct_off += ct_lens[i];
    out_off += body;
  }
  // One in-place ECB pass over the whole batch: ECB has no cross-block
  // state, so entry boundaries are irrelevant here.
  if (AesNiEnabled()) {
    AesNiDecryptBlocks(key.data(), out.data(), body_total / kBlockBytes);
  } else {
    CachedCipherCtx& cached = ThreadEcbDecryptCtx();
    if (!InitCachedEcb(cached, key, /*encrypt=*/false)) {
      return Status::Internal("AES-ECB decrypt init failed");
    }
    size_t done = 0;
    while (done < body_total) {
      // Chunked only to respect EVP's int length parameter.
      const size_t step =
          std::min<size_t>(body_total - done, size_t{1} << 30);
      int dec_len = 0;
      if (EVP_DecryptUpdate(cached.ctx, out.data() + done, &dec_len,
                            out.data() + done, static_cast<int>(step)) != 1 ||
          dec_len != static_cast<int>(step)) {
        cached.keyed = false;
        EVP_CIPHER_CTX_reset(cached.ctx);
        return Status::Internal("AES-ECB batch decryption failed");
      }
      done += step;
    }
  }
  // CBC chaining (XOR with the previous ciphertext block — the IV for each
  // entry's first block) and per-entry PKCS#7 validation.
  ct_off = 0;
  out_off = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t body = ct_lens[i] - kBlockBytes;
    for (size_t b = 0; b < body; b += kBlockBytes) {
      Xor16(out.data() + out_off + b, cts.data() + ct_off + b);
    }
    const uint8_t pad = out[out_off + body - 1];
    bool valid = pad >= 1 && pad <= kBlockBytes;
    if (valid) {
      for (size_t b = body - pad; b < body; ++b) {
        valid = valid && out[out_off + b] == pad;
      }
    }
    plain_lens[i] = valid ? static_cast<uint32_t>(body - pad) : kBadEntry;
    ct_off += ct_lens[i];
    out_off += body;
  }
  return Status::Ok();
}

}  // namespace rsse::crypto
