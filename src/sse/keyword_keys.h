#ifndef RSSE_SSE_KEYWORD_KEYS_H_
#define RSSE_SSE_KEYWORD_KEYS_H_

#include <memory>

#include "common/bytes.h"
#include "crypto/hmac_prf.h"

namespace rsse::sse {

/// Per-keyword key pair of the Π_bas encrypted multimap (Cash et al.):
/// `label_key` (K1) keys the PRF that derives dictionary labels
/// F(K1, counter); `value_key` (K2) encrypts the stored payloads.
/// The pair doubles as the search token — handing (K1, K2) to the server
/// lets it retrieve and decrypt exactly this keyword's postings.
struct KeywordKeys {
  Bytes label_key;
  Bytes value_key;

  friend bool operator==(const KeywordKeys&, const KeywordKeys&) = default;
};

/// Derives a keyword key pair from a per-keyword shared secret via a public
/// KDF (domain-separated SHA-256). Both the owner (from a PRF) and, in the
/// Constant schemes, the server (from an expanded DPRF leaf value) apply
/// this function — it is the paper's "use a DPRF instead of a PRF" hook.
KeywordKeys KeysFromSharedSecret(const Bytes& secret);

/// In-place variant for the server's per-leaf expansion loop: reuses the
/// capacity of `out`'s key buffers, so repeated derivation allocates only
/// on the first call.
void KeysFromSharedSecretInto(ConstByteSpan secret, KeywordKeys& out);

/// The same KDF for a λ-byte secret (a GGM leaf value) into fixed-size
/// key buffers (λ bytes each): the allocation-free form the leaf resolver
/// runs per leaf. False on a hash failure (no key bytes are valid then).
bool KeysFromLambdaSecretInto(const uint8_t* secret, uint8_t* label_key,
                              uint8_t* value_key);

/// Strategy for mapping keywords to key pairs at index-build and trapdoor
/// time. The default PRF deriver implements standard SSE; the Constant
/// schemes substitute a DPRF-backed deriver.
class KeywordKeyDeriver {
 public:
  virtual ~KeywordKeyDeriver() = default;

  /// Key pair for keyword `w`.
  virtual KeywordKeys Derive(const Bytes& w) const = 0;
};

/// Standard SSE derivation: per-keyword secret = F(master_key, w) with
/// HMAC-SHA-512 (the paper's PRF instantiation).
class PrfKeyDeriver : public KeywordKeyDeriver {
 public:
  explicit PrfKeyDeriver(const Bytes& master_key);

  KeywordKeys Derive(const Bytes& w) const override;

 private:
  crypto::Prf prf_;
};

}  // namespace rsse::sse

#endif  // RSSE_SSE_KEYWORD_KEYS_H_
