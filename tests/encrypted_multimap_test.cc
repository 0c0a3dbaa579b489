// Plaintext-side helpers of the encrypted dictionary: the id payload
// codec and the exact sizing model every store build reserves from. The
// store itself is covered by sharded_emm_test.

#include "sse/encrypted_multimap.h"

#include <gtest/gtest.h>

#include "crypto/random.h"
#include "sse/emm_codec.h"

namespace rsse::sse {
namespace {

TEST(EmmSizingTest, SizingMatchesBytesActuallyWritten) {
  // The batch staging path reserves from ComputeKeywordEmmSizing and the
  // stores reserve from ComputeEmmSizing; both must equal the bytes the
  // encryption actually emits — for padded, empty and non-padded lists.
  PrfKeyDeriver deriver(crypto::GenerateKey());
  struct Case {
    std::vector<Bytes> payloads;
    uint64_t pad_quantum;
  };
  const Case cases[] = {
      {{EncodeIdPayload(1), EncodeIdPayload(2), EncodeIdPayload(3)}, 0},
      {{EncodeIdPayload(1), EncodeIdPayload(2), EncodeIdPayload(3)}, 4},
      {{}, 0},
      {{}, 8},
      {{ToBytes("short"), Bytes(100, 0xaa), {}}, 5},
  };
  for (size_t k = 0; k < std::size(cases); ++k) {
    const Case& c = cases[k];
    const EmmSizing sizing =
        ComputeKeywordEmmSizing(c.payloads, c.pad_quantum);
    EmmBuildScratch scratch;
    size_t entries = 0;
    size_t bytes_written = 0;
    std::vector<Bytes> storage;
    Status s = EncryptKeywordEntries(
        ToBytes("kw"), c.payloads, deriver, c.pad_quantum, scratch,
        [&](const Label&, size_t len) {
          ++entries;
          bytes_written += len;
          storage.emplace_back(len);
          return ByteSpan(storage.back().data(), len);
        });
    ASSERT_TRUE(s.ok()) << "case " << k;
    EXPECT_EQ(entries, sizing.entries) << "case " << k;
    EXPECT_EQ(bytes_written, sizing.value_bytes) << "case " << k;
  }
}

TEST(IdPayloadTest, RoundTrip) {
  EXPECT_EQ(*DecodeIdPayload(EncodeIdPayload(0)), 0u);
  EXPECT_EQ(*DecodeIdPayload(EncodeIdPayload(~uint64_t{0})), ~uint64_t{0});
}

TEST(IdPayloadTest, RejectsWrongSize) {
  EXPECT_FALSE(DecodeIdPayload(Bytes(7, 0)).has_value());
  EXPECT_FALSE(DecodeIdPayload(Bytes(9, 0)).has_value());
}

}  // namespace
}  // namespace rsse::sse
