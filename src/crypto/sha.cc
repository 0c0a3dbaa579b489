// Sha256Into runs the low-level SHA256_* API: EVP_Digest(EVP_sha256())
// makes an implicit provider fetch and a fresh context on every call,
// which costs several times the one compression a leaf KDF needs.
#define OPENSSL_SUPPRESS_DEPRECATED

#include "crypto/sha.h"

#include <openssl/evp.h>
#include <openssl/sha.h>

namespace rsse::crypto {

namespace {

Bytes Digest(const EVP_MD* md, const Bytes& data) {
  Bytes out(EVP_MD_get_size(md));
  unsigned int out_len = 0;
  EVP_Digest(data.data(), data.size(), out.data(), &out_len, md, nullptr);
  out.resize(out_len);
  return out;
}

}  // namespace

Bytes Sha1(const Bytes& data) { return Digest(EVP_sha1(), data); }

Bytes Sha256(const Bytes& data) { return Digest(EVP_sha256(), data); }

bool Sha256Into(ConstByteSpan data, uint8_t out[32]) {
  SHA256_CTX ctx;
  return SHA256_Init(&ctx) == 1 &&
         SHA256_Update(&ctx, data.data(), data.size()) == 1 &&
         SHA256_Final(out, &ctx) == 1;
}

Bytes Sha512(const Bytes& data) { return Digest(EVP_sha512(), data); }

}  // namespace rsse::crypto
