// The `Prf` hot path deliberately uses the low-level SHA512_* API (cached
// ipad/opad midstates, stack contexts): it evaluates ~500 ns/call vs ~1 µs
// through EVP_MAC, with zero allocation and full thread-safety. Outputs are
// bit-identical to HMAC-SHA-512 (pinned by the RFC 4231 KATs).
#define OPENSSL_SUPPRESS_DEPRECATED

#include "crypto/hmac_prf.h"

#include <openssl/core_names.h>
#include <openssl/evp.h>
#include <openssl/sha.h>

#include <cstring>

#include "crypto/sha512_x4.h"

namespace rsse::crypto {

namespace {

constexpr size_t kSha512BlockBytes = 128;

EVP_MAC* HmacAlgorithm() {
  // Fetched once and intentionally never freed (trivial-destruction rule
  // for process-lifetime singletons).
  static EVP_MAC* mac = EVP_MAC_fetch(nullptr, "HMAC", nullptr);
  return mac;
}

/// Per-thread context reused across all one-shot evaluations: re-keying an
/// existing context avoids the alloc/free pair per call. Returns nullptr
/// on allocation or provider failure so callers can propagate the error
/// instead of dereferencing a dead context.
struct MacCtxHolder {
  EVP_MAC_CTX* ctx = nullptr;

  ~MacCtxHolder() {
    if (ctx != nullptr) EVP_MAC_CTX_free(ctx);
  }
};

EVP_MAC_CTX* ThreadOneShotContext(const Bytes& key, const char* digest_name) {
  thread_local MacCtxHolder holder;
  EVP_MAC_CTX*& ctx = holder.ctx;
  if (ctx == nullptr) {
    EVP_MAC* mac = HmacAlgorithm();
    if (mac == nullptr) return nullptr;
    ctx = EVP_MAC_CTX_new(mac);
    if (ctx == nullptr) return nullptr;
  }
  OSSL_PARAM params[] = {
      OSSL_PARAM_construct_utf8_string(OSSL_MAC_PARAM_DIGEST,
                                       const_cast<char*>(digest_name), 0),
      OSSL_PARAM_construct_end(),
  };
  if (EVP_MAC_init(ctx, key.data(), key.size(), params) != 1) return nullptr;
  return ctx;
}

Result<Bytes> OneShot(const Bytes& key, const Bytes& data,
                      const char* digest_name, size_t mac_len) {
  EVP_MAC_CTX* ctx = ThreadOneShotContext(key, digest_name);
  if (ctx == nullptr) {
    return Status::Internal("OpenSSL HMAC context initialization failed");
  }
  Bytes out(mac_len);
  size_t out_len = 0;
  if (EVP_MAC_update(ctx, data.data(), data.size()) != 1 ||
      EVP_MAC_final(ctx, out.data(), &out_len, out.size()) != 1) {
    return Status::Internal("OpenSSL HMAC evaluation failed");
  }
  out.resize(out_len);
  return out;
}

}  // namespace

Result<Bytes> HmacSha512(const Bytes& key, const Bytes& data) {
  return OneShot(key, data, "SHA512", 64);
}

Result<Bytes> HmacSha256(const Bytes& key, const Bytes& data) {
  return OneShot(key, data, "SHA256", 32);
}

struct Prf::Impl {
  /// SHA-512 midstates after absorbing the padded key XOR ipad / opad —
  /// computed once at construction. An evaluation copies a midstate onto
  /// the stack and runs the remaining one (or two) compressions there, so
  /// evaluations neither allocate nor share mutable state.
  SHA512_CTX inner;
  SHA512_CTX outer;
  /// The same two midstates as bare hash words, for the multi-lane
  /// counter kernel (OpenSSL's SHA_LONG64 is a distinct 64-bit type).
  HmacSha512Midstates midstates;
  bool valid = false;
};

Prf::Prf(const Bytes& key) : impl_(std::make_unique<Impl>()) {
  // HMAC key preparation: keys longer than the block are hashed first,
  // shorter ones zero-padded.
  uint8_t block[kSha512BlockBytes] = {0};
  if (key.size() > kSha512BlockBytes) {
    SHA512_CTX kc;
    if (SHA512_Init(&kc) != 1 ||
        SHA512_Update(&kc, key.data(), key.size()) != 1 ||
        SHA512_Final(block, &kc) != 1) {
      return;
    }
  } else if (!key.empty()) {
    std::memcpy(block, key.data(), key.size());
  }
  uint8_t pad[kSha512BlockBytes];
  for (size_t i = 0; i < kSha512BlockBytes; ++i) {
    pad[i] = static_cast<uint8_t>(block[i] ^ 0x36);
  }
  if (SHA512_Init(&impl_->inner) != 1 ||
      SHA512_Update(&impl_->inner, pad, sizeof(pad)) != 1) {
    return;
  }
  for (size_t i = 0; i < kSha512BlockBytes; ++i) {
    pad[i] = static_cast<uint8_t>(block[i] ^ 0x5c);
  }
  if (SHA512_Init(&impl_->outer) != 1 ||
      SHA512_Update(&impl_->outer, pad, sizeof(pad)) != 1) {
    return;
  }
  for (int w = 0; w < 8; ++w) {
    impl_->midstates.inner[w] = impl_->inner.h[w];
    impl_->midstates.outer[w] = impl_->outer.h[w];
  }
  impl_->valid = true;
}

Prf::~Prf() = default;

Result<Prf> Prf::Create(const Bytes& key) {
  Prf prf(key);
  if (!prf.ok()) {
    return Status::Internal("HMAC-SHA-512 PRF initialization failed");
  }
  return prf;
}

Prf::Prf(Prf&&) noexcept = default;
Prf& Prf::operator=(Prf&&) noexcept = default;

bool Prf::ok() const { return impl_ != nullptr && impl_->valid; }

bool Prf::EvalInto(ConstByteSpan input, ByteSpan out) const {
  if (out.size() > kMaxOutputBytes || !ok()) return false;
  uint8_t mac[kMaxOutputBytes];
  SHA512_CTX ctx = impl_->inner;
  if (SHA512_Update(&ctx, input.data(), input.size()) != 1 ||
      SHA512_Final(mac, &ctx) != 1) {
    return false;
  }
  ctx = impl_->outer;
  if (SHA512_Update(&ctx, mac, sizeof(mac)) != 1 ||
      SHA512_Final(mac, &ctx) != 1) {
    return false;
  }
  std::memcpy(out.data(), mac, out.size());
  return true;
}

bool Prf::EvalCountersInto(uint64_t start, size_t count, ByteSpan out,
                           size_t out_len) const {
  if (!ok() || out_len == 0 || out_len > kMaxOutputBytes) return false;
  if (out.size() < count * out_len) return false;
  HmacSha512Counters(impl_->midstates, start, count, out.data(), out_len,
                     out_len);
  return true;
}

Bytes Prf::Eval(const Bytes& input) const {
  Bytes out(kMaxOutputBytes);
  if (!EvalInto(input, out)) return {};
  return out;
}

Bytes Prf::EvalTrunc(const Bytes& input, size_t out_len) const {
  Bytes out = Eval(input);
  if (out_len < out.size()) out.resize(out_len);
  return out;
}

}  // namespace rsse::crypto
