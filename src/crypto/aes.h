#ifndef RSSE_CRYPTO_AES_H_
#define RSSE_CRYPTO_AES_H_

#include <span>

#include "common/bytes.h"
#include "common/status.h"

namespace rsse::crypto {

/// AES-128-CBC with PKCS#7 padding and a fresh random IV per encryption —
/// the paper's semantically secure symmetric encryption for tuple ids and
/// index values. Ciphertext layout: IV (16 bytes) || CBC ciphertext.
///
/// The `*Into` variants write into caller scratch buffers and keep two
/// per-thread cipher contexts (encrypt/decrypt) whose AES key schedule is
/// cached across calls under the same key — the common case, since every
/// counter probe of one keyword reuses that keyword's value key.
class Aes128Cbc {
 public:
  static constexpr size_t kKeyBytes = 16;
  static constexpr size_t kBlockBytes = 16;

  /// Encrypts `plaintext` under `key` (must be 16 bytes) with a fresh
  /// random IV.
  static Result<Bytes> Encrypt(const Bytes& key, const Bytes& plaintext);

  /// Deterministic variant with caller-provided IV (tests / reproducible
  /// fixtures only).
  static Result<Bytes> EncryptWithIv(const Bytes& key, const Bytes& iv,
                                     const Bytes& plaintext);

  /// Decrypts `ciphertext` (IV || body) under `key`. Fails on malformed
  /// input or padding.
  static Result<Bytes> Decrypt(const Bytes& key, const Bytes& ciphertext);

  /// Encrypts into `out` (size >= CiphertextSize(plaintext.size())) with a
  /// fresh pooled-random IV; `*written` receives the ciphertext length.
  /// No allocation.
  static Status EncryptInto(ConstByteSpan key, ConstByteSpan plaintext,
                            ByteSpan out, size_t* written);

  /// `EncryptInto` with a caller-provided 16-byte IV.
  static Status EncryptWithIvInto(ConstByteSpan key, ConstByteSpan iv,
                                  ConstByteSpan plaintext, ByteSpan out,
                                  size_t* written);

  /// Decrypts `ciphertext` (IV || body) into `out` (size >=
  /// ciphertext.size() - 16); `*written` receives the plaintext length.
  /// No allocation.
  static Status DecryptInto(ConstByteSpan key, ConstByteSpan ciphertext,
                            ByteSpan out, size_t* written);

  /// Size of the ciphertext produced for `plaintext_len` bytes of input
  /// (IV + padded body).
  static size_t CiphertextSize(size_t plaintext_len);

  // -------------------------------------------------------------------------
  // Batch (arena-at-a-time) API. All entries of one call share one key —
  // the SSE pattern, where every posting of a keyword is encrypted under
  // that keyword's value key — so one cached key schedule and a handful of
  // multi-block ECB EVP calls replace the per-entry init/update/final
  // round: CBC chaining is applied in scalar code around a raw AES-ECB
  // pass, producing ciphertexts byte-identical to the per-entry API.
  // -------------------------------------------------------------------------

  /// `plain_lens[i]` in a decrypt result marking an entry whose padding
  /// was invalid (wrong key or corrupt ciphertext).
  static constexpr uint32_t kBadEntry = 0xffffffffu;

  /// Encrypts `plain_lens.size()` plaintexts, packed back to back in
  /// `plaintexts` (entry i occupies the next `plain_lens[i]` bytes), into
  /// `out` as back-to-back IV || CBC-body ciphertexts of exactly
  /// `CiphertextSize(plain_lens[i])` bytes each. All IVs are filled from
  /// the pooled RNG in one draw. `*written` receives the total bytes.
  static Status EncryptManyInto(ConstByteSpan key, ConstByteSpan plaintexts,
                                std::span<const uint32_t> plain_lens,
                                ByteSpan out, size_t* written);

  /// `EncryptManyInto` with caller-provided IVs, 16 bytes per entry packed
  /// in `ivs` (tests / parity fixtures). `ivs` must not alias `out`.
  static Status EncryptManyWithIvsInto(ConstByteSpan key, ConstByteSpan ivs,
                                       ConstByteSpan plaintexts,
                                       std::span<const uint32_t> plain_lens,
                                       ByteSpan out, size_t* written);

  /// Decrypts `ct_lens.size()` ciphertexts (each IV || body,
  /// `ct_lens[i]` bytes), packed back to back in `cts`, with ONE ECB pass
  /// over every body block of the batch. Entry i's plaintext is written at
  /// offset sum_{k<i}(ct_lens[k] - 16) of `out` (padded spacing — callers
  /// walk the same offsets) and `plain_lens[i]` receives its length, or
  /// `kBadEntry` when that entry's PKCS#7 padding is invalid (wrong key);
  /// other entries still decrypt. Returns InvalidArgument only for
  /// malformed arguments (bad key size, misaligned lengths, short
  /// buffers). On AES-NI hosts the key is expanded per call (tens of
  /// nanoseconds, so a one-entry batch under a fresh key stays cheap);
  /// elsewhere, or with RSSE_NO_AVX2=1, one cached EVP context decrypts.
  static Status DecryptManyInto(ConstByteSpan key, ConstByteSpan cts,
                                std::span<const uint32_t> ct_lens,
                                ByteSpan out,
                                std::span<uint32_t> plain_lens);
};

}  // namespace rsse::crypto

#endif  // RSSE_CRYPTO_AES_H_
