#ifndef RSSE_CRYPTO_PRG_H_
#define RSSE_CRYPTO_PRG_H_

#include <utility>

#include "common/bytes.h"

namespace rsse::crypto {

/// GGM length-doubling pseudorandom generator `G : {0,1}^λ -> {0,1}^2λ`
/// (Goldreich-Goldwasser-Micali), the building block of the delegatable PRF
/// of Kiayias et al. used by the Constant schemes.
///
/// Two interchangeable instantiations of G are provided:
///
///  * `kHmac` (default, paper-faithful): the 64-byte HMAC-SHA-512 MAC of
///    the seed under a fixed public key is split into G0 (left) and G1
///    (right) halves of λ = 16 bytes (the remaining bytes are discarded).
///  * `kAes`: fixed-key AES-128 in a two-block Matyas-Meyer-Oseas
///    construction, G_b(s) = AES_K(s ⊕ c_b) ⊕ s ⊕ c_b with public
///    constants c_0 ≠ c_1 — the standard AES-NI instantiation of GGM-style
///    PRGs (an order of magnitude faster per expansion on AES-NI
///    hardware). K is public; as in the HMAC backend, all entropy is in
///    the seed.
///
/// The backend is selected once per process: the `RSSE_GGM_PRG`
/// environment variable ("hmac" | "aes") is read on first use, and
/// `SetBackend` overrides it programmatically (tests, embedders). The two
/// backends generate *different* PRG values, so an outsourced index must
/// be searched under the backend that built it.
class GgmPrg {
 public:
  enum class Backend { kHmac, kAes };

  /// Currently selected backend.
  static Backend backend();

  /// Selects the backend for subsequent expansions. Not thread-safe
  /// against in-flight expansions; call before spinning up workers.
  static void SetBackend(Backend b);

  /// Left output G0(seed): λ bytes.
  static Bytes G0(const Bytes& seed);

  /// Right output G1(seed): λ bytes.
  static Bytes G1(const Bytes& seed);

  /// Both halves with a single backend invocation.
  static std::pair<Bytes, Bytes> Expand(const Bytes& seed);

  /// G_b(seed) for bit b in {0,1}.
  static Bytes Gb(const Bytes& seed, int bit);

  /// Zero-allocation expansion: writes G0(seed) into `left` and G1(seed)
  /// into `right` (16 bytes each). The outputs may alias `seed` — the
  /// in-place GGM subtree walk overwrites parent seeds with children.
  /// Aborts on OpenSSL failure (a broken provider must not yield
  /// predictable seeds).
  static void ExpandInto(const uint8_t* seed, uint8_t* left, uint8_t* right);

  /// Zero-allocation G_b(seed) into `out` (16 bytes; may alias `seed`).
  static void GbInto(const uint8_t* seed, int bit, uint8_t* out);

  /// Expands one whole GGM-tree frontier in place: `buf` holds `count`
  /// λ-byte seeds on entry and their 2·`count` children (children of seed i
  /// at slots 2i and 2i+1) on return; `buf` must have room for 2·`count`
  /// seeds. Produces bit-identical output to per-node `ExpandInto` calls —
  /// the AES backend batches the frontier into multi-block
  /// `EVP_EncryptUpdate` calls (one per 256-parent chunk) instead of
  /// dispatching two blocks at a time, and the HMAC backend runs 8 (or 4)
  /// parents per pair of vector SHA-512 compressions (crypto/sha512_x4.h).
  static void ExpandFrontierInPlace(uint8_t* buf, size_t count);
};

}  // namespace rsse::crypto

#endif  // RSSE_CRYPTO_PRG_H_
