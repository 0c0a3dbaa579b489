#include "sse/keyword_keys.h"

#include <cstring>
#include <utility>

#include "crypto/sha.h"

namespace rsse::sse {

bool KeysFromLambdaSecretInto(const uint8_t* secret, uint8_t* label_key,
                              uint8_t* value_key) {
  // Domain-separated KDF over a stack buffer: secret || 0x01 -> K1,
  // secret || 0x02 -> K2, each the leading λ bytes of a SHA-256 digest.
  uint8_t input[crypto::kLambdaBytes + 1];
  uint8_t digest[32];
  std::memcpy(input, secret, crypto::kLambdaBytes);
  for (const auto& [tag, out] : {std::pair{uint8_t{0x01}, label_key},
                                 std::pair{uint8_t{0x02}, value_key}}) {
    input[crypto::kLambdaBytes] = tag;
    if (!crypto::Sha256Into(ConstByteSpan(input, sizeof(input)), digest)) {
      return false;
    }
    std::memcpy(out, digest, crypto::kLambdaBytes);
  }
  return true;
}

void KeysFromSharedSecretInto(ConstByteSpan secret, KeywordKeys& out) {
  if (secret.size() == crypto::kLambdaBytes) {
    uint8_t k1[crypto::kLambdaBytes];
    uint8_t k2[crypto::kLambdaBytes];
    if (!KeysFromLambdaSecretInto(secret.data(), k1, k2)) {
      out.label_key.clear();
      out.value_key.clear();
      return;
    }
    out.label_key.assign(k1, k1 + sizeof(k1));
    out.value_key.assign(k2, k2 + sizeof(k2));
    return;
  }
  // Other secret lengths (exotic callers): the same KDF, allocating.
  Bytes in1(secret.begin(), secret.end());
  AppendByte(in1, 0x01);
  Bytes in2(secret.begin(), secret.end());
  AppendByte(in2, 0x02);
  Bytes k1 = crypto::Sha256(in1);
  Bytes k2 = crypto::Sha256(in2);
  k1.resize(crypto::kLambdaBytes);
  k2.resize(crypto::kLambdaBytes);
  out.label_key = std::move(k1);
  out.value_key = std::move(k2);
}

KeywordKeys KeysFromSharedSecret(const Bytes& secret) {
  KeywordKeys keys;
  KeysFromSharedSecretInto(secret, keys);
  return keys;
}

PrfKeyDeriver::PrfKeyDeriver(const Bytes& master_key) : prf_(master_key) {}

KeywordKeys PrfKeyDeriver::Derive(const Bytes& w) const {
  return KeysFromSharedSecret(prf_.EvalTrunc(w, crypto::kLambdaBytes));
}

}  // namespace rsse::sse
