#include "server/wire.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace rsse::server {
namespace {

Label MakeLabel(uint8_t fill) {
  Label l;
  l.fill(fill);
  return l;
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

TEST(WireFrameTest, RoundTrip) {
  Bytes stream;
  const Bytes payload = ToBytes("hello frames");
  ASSERT_TRUE(EncodeFrame(FrameType::kStatsReq, ConstByteSpan(payload.data(),
                                                  payload.size()),
              stream));
  ASSERT_TRUE(EncodeFrame(FrameType::kSearchDone, {}, stream));

  size_t offset = 0;
  Frame frame;
  ASSERT_EQ(DecodeFrame(stream, offset, frame, nullptr), FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kStatsReq);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_EQ(DecodeFrame(stream, offset, frame, nullptr), FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kSearchDone);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(offset, stream.size());
  EXPECT_EQ(DecodeFrame(stream, offset, frame, nullptr),
            FrameParse::kNeedMore);
}

TEST(WireFrameTest, TruncationAtEveryPrefixNeedsMoreNeverCrashes) {
  Bytes stream;
  const Bytes payload = ToBytes("some payload bytes");
  ASSERT_TRUE(EncodeFrame(FrameType::kSetupReq,
              ConstByteSpan(payload.data(), payload.size()), stream));
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    Bytes prefix(stream.begin(), stream.begin() + static_cast<long>(cut));
    size_t offset = 0;
    Frame frame;
    EXPECT_EQ(DecodeFrame(prefix, offset, frame, nullptr),
              FrameParse::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(offset, 0u);
  }
}

TEST(WireFrameTest, RejectsOversizedLength) {
  Bytes stream;
  AppendUint32(stream, kMaxFrameBytes + 1);
  stream.push_back(kWireVersion);
  stream.push_back(static_cast<uint8_t>(FrameType::kStatsReq));
  size_t offset = 0;
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(stream, offset, frame, &error),
            FrameParse::kMalformed);
  EXPECT_NE(error.find("kMaxFrameBytes"), std::string::npos);
}

TEST(WireFrameTest, RejectsUndersizedLength) {
  Bytes stream;
  AppendUint32(stream, 1);  // cannot even hold version + type
  stream.push_back(kWireVersion);
  size_t offset = 0;
  Frame frame;
  EXPECT_EQ(DecodeFrame(stream, offset, frame, nullptr),
            FrameParse::kMalformed);
}

TEST(WireFrameTest, RejectsVersionMismatch) {
  Bytes stream;
  ASSERT_TRUE(EncodeFrame(FrameType::kStatsReq, {}, stream));
  stream[4] = kWireVersion + 1;
  size_t offset = 0;
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(stream, offset, frame, &error),
            FrameParse::kMalformed);
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(WireFrameTest, RejectsUnknownType) {
  Bytes stream;
  ASSERT_TRUE(EncodeFrame(FrameType::kStatsReq, {}, stream));
  stream[5] = 200;
  size_t offset = 0;
  Frame frame;
  EXPECT_EQ(DecodeFrame(stream, offset, frame, nullptr),
            FrameParse::kMalformed);
}

TEST(WireFrameTest, ErrorDrainingFrameRoundTrip) {
  // The draining refusal is a first-class frame: it carries a normal
  // ErrorResponse payload under its own type so clients can tell a
  // retryable drain apart from a hard protocol error.
  ErrorResponse resp;
  resp.message = "server draining; retry against the restarted server";
  const Bytes payload = resp.Encode();
  Bytes stream;
  ASSERT_TRUE(EncodeFrame(FrameType::kErrorDraining,
                          ConstByteSpan(payload.data(), payload.size()),
                          stream));
  size_t offset = 0;
  Frame frame;
  ASSERT_EQ(DecodeFrame(stream, offset, frame, nullptr), FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kErrorDraining);
  auto decoded = ErrorResponse::Decode(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->message, resp.message);
}

TEST(WireFrameTest, ErrorDrainingIsTheLastKnownType) {
  // kErrorDraining sits at the top of the accepted range; its successor
  // must stay malformed until a protocol revision deliberately claims it.
  Bytes stream;
  ASSERT_TRUE(EncodeFrame(FrameType::kErrorDraining, {}, stream));
  size_t offset = 0;
  Frame frame;
  ASSERT_EQ(DecodeFrame(stream, offset, frame, nullptr), FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kErrorDraining);

  stream.clear();
  ASSERT_TRUE(EncodeFrame(FrameType::kErrorDraining, {}, stream));
  stream[5] = static_cast<uint8_t>(FrameType::kErrorDraining) + 1;
  offset = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(stream, offset, frame, &error),
            FrameParse::kMalformed);
  EXPECT_NE(error.find("unknown frame type"), std::string::npos);
}

TEST(WireFrameTest, ErrorDrainingFuzzEveryTruncationAndByteFlip) {
  ErrorResponse resp;
  resp.message = "draining";
  const Bytes payload = resp.Encode();
  Bytes stream;
  ASSERT_TRUE(EncodeFrame(FrameType::kErrorDraining,
                          ConstByteSpan(payload.data(), payload.size()),
                          stream));
  // Truncations: every strict prefix wants more bytes, never faults.
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    Bytes prefix(stream.begin(), stream.begin() + static_cast<long>(cut));
    size_t offset = 0;
    Frame frame;
    EXPECT_EQ(DecodeFrame(prefix, offset, frame, nullptr),
              FrameParse::kNeedMore)
        << "cut at " << cut;
  }
  // Byte flips: the frame either still decodes (payload flips — the typed
  // ErrorResponse decoder gets its own say) or is malformed; no flip may
  // crash, and a flip that survives DecodeFrame must decode or reject
  // cleanly as an ErrorResponse too.
  for (size_t pos = 0; pos < stream.size(); ++pos) {
    Bytes mutated = stream;
    mutated[pos] ^= 0x40;
    size_t offset = 0;
    Frame frame;
    const FrameParse parse = DecodeFrame(mutated, offset, frame, nullptr);
    if (parse == FrameParse::kFrame) {
      ErrorResponse::Decode(frame.payload);
    }
  }
}

// ---------------------------------------------------------------------------
// Typed payloads
// ---------------------------------------------------------------------------

TEST(WirePayloadTest, SetupRoundTrip) {
  SetupRequest req;
  req.index_blob = ToBytes("pretend this is a ShardedEmm blob");
  auto decoded = SetupRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->index_blob, req.index_blob);

  SetupResponse resp;
  resp.shards = 8;
  resp.entries = 123456789;
  auto decoded_resp = SetupResponse::Decode(resp.Encode());
  ASSERT_TRUE(decoded_resp.ok());
  EXPECT_EQ(decoded_resp->shards, 8u);
  EXPECT_EQ(decoded_resp->entries, 123456789u);
}

TEST(WirePayloadTest, SearchBatchRoundTrip) {
  SearchBatchRequest req;
  for (uint32_t q = 0; q < 3; ++q) {
    WireQuery query;
    query.query_id = 100 + q;
    for (uint8_t t = 0; t < 4; ++t) {
      query.tokens.push_back(WireToken{static_cast<uint8_t>(t + q),
                                       MakeLabel(static_cast<uint8_t>(t))});
    }
    req.queries.push_back(query);
  }
  auto decoded = SearchBatchRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->queries.size(), 3u);
  for (uint32_t q = 0; q < 3; ++q) {
    EXPECT_EQ(decoded->queries[q].query_id, 100 + q);
    EXPECT_EQ(decoded->queries[q].tokens, req.queries[q].tokens);
  }
}

TEST(WirePayloadTest, SearchBatchRejectsCorruption) {
  SearchBatchRequest req;
  WireQuery query;
  query.query_id = 7;
  query.tokens.push_back(WireToken{5, MakeLabel(0xab)});
  req.queries.push_back(query);
  const Bytes good = req.Encode();

  // Truncation at every cut point must fail cleanly, never crash.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SearchBatchRequest::Decode(bad).ok()) << "cut " << cut;
  }

  // Query count far beyond what the bytes can hold.
  Bytes inflated = good;
  inflated[0] = 0xff;
  EXPECT_FALSE(SearchBatchRequest::Decode(inflated).ok());

  // Token level out of the GGM range.
  Bytes bad_level = good;
  bad_level[12] = 63;  // 4 count + 4 id + 4 token count → level byte
  EXPECT_FALSE(SearchBatchRequest::Decode(bad_level).ok());

  // Trailing garbage.
  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(SearchBatchRequest::Decode(trailing).ok());
}

TEST(WirePayloadTest, SearchResultRoundTripAndCorruption) {
  SearchResult result;
  result.query_id = 42;
  result.ids = {1, 2, 3, 1ull << 60};
  auto decoded = SearchResult::Decode(result.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->query_id, 42u);
  EXPECT_EQ(decoded->ids, result.ids);

  Bytes good = result.Encode();
  // Claim more ids than the payload holds.
  good[11] = 0xff;
  EXPECT_FALSE(SearchResult::Decode(good).ok());
}

TEST(WirePayloadTest, SearchDoneRoundTrip) {
  SearchDone done;
  done.query_count = 9;
  done.tokens_received = 40;
  done.unique_nodes_expanded = 25;
  done.leaves_searched = 4096;
  done.search_nanos = 123456;
  auto decoded = SearchDone::Decode(done.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->query_count, 9u);
  EXPECT_EQ(decoded->tokens_received, 40u);
  EXPECT_EQ(decoded->unique_nodes_expanded, 25u);
  EXPECT_EQ(decoded->leaves_searched, 4096u);
  EXPECT_EQ(decoded->search_nanos, 123456u);
  EXPECT_FALSE(SearchDone::Decode(ToBytes("short")).ok());
}

TEST(WirePayloadTest, SearchDoneCarriesSkippedDecrypts) {
  SearchDone done;
  done.query_count = 1;
  done.skipped_decrypts = 77;
  auto decoded = SearchDone::Decode(done.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->skipped_decrypts, 77u);
}

TEST(WirePayloadTest, SetupStoreRoundTripAndCorruption) {
  SetupStoreRequest req;
  req.store_id = 1;
  req.kind = 1;
  req.index_blob = Bytes(37, 0xCD);
  req.gate_blob = Bytes(9, 0x11);
  const Bytes good = req.Encode();
  auto decoded = SetupStoreRequest::Decode(good);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->store_id, 1u);
  EXPECT_EQ(decoded->kind, 1);
  EXPECT_EQ(decoded->index_blob, req.index_blob);
  EXPECT_EQ(decoded->gate_blob, req.gate_blob);

  // Empty gate blob round-trips too.
  req.gate_blob.clear();
  auto no_gate = SetupStoreRequest::Decode(req.Encode());
  ASSERT_TRUE(no_gate.ok());
  EXPECT_TRUE(no_gate->gate_blob.empty());

  // Truncation at every cut point must fail cleanly, never crash.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SetupStoreRequest::Decode(bad).ok()) << "cut " << cut;
  }

  // Index blob length far beyond the payload.
  Bytes inflated = good;
  inflated[5] = 0xff;  // high byte of the u64 index length
  EXPECT_FALSE(SetupStoreRequest::Decode(inflated).ok());

  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(SetupStoreRequest::Decode(trailing).ok());
}

TEST(WirePayloadTest, SetupStoreFrameStreamsTheEncodedBytes) {
  // The client streams SetupStore as a scatter list over the caller's
  // blobs; the bytes on the wire must be exactly what Encode() would have
  // copied out, for every field shape (gate or none, empty index, a store
  // id whose every byte differs).
  for (const bool with_gate : {true, false}) {
    for (const size_t index_len : {size_t{0}, size_t{1}, size_t{4099}}) {
      SetupStoreRequest req;
      req.store_id = 0x01020304;
      req.kind = 1;
      req.index_blob = Bytes(index_len);
      for (size_t i = 0; i < index_len; ++i) {
        req.index_blob[i] = static_cast<uint8_t>(i * 7);
      }
      if (with_gate) req.gate_blob = Bytes(300, 0x5A);
      const SetupStoreFrame frame(
          req.store_id, req.kind,
          ConstByteSpan(req.index_blob.data(), req.index_blob.size()),
          ConstByteSpan(req.gate_blob.data(), req.gate_blob.size()));
      Bytes streamed;
      for (ConstByteSpan part : frame.Spans()) {
        streamed.insert(streamed.end(), part.begin(), part.end());
      }
      EXPECT_EQ(streamed, req.Encode())
          << "gate " << with_gate << " index " << index_len;
      // The blob parts alias the caller's buffers: nothing was copied.
      EXPECT_EQ(frame.Spans()[1].data(), req.index_blob.data());
      EXPECT_EQ(frame.Spans()[3].data(), req.gate_blob.data());
    }
  }
}

TEST(WirePayloadTest, SearchKeywordRoundTripAndCorruption) {
  SearchKeywordRequest req;
  req.store_id = 1;
  SearchKeywordRequest::Query query;
  query.query_id = 5;
  WireKeywordToken keyword;
  keyword.kind = 0;
  keyword.a = Bytes(16, 0xA1);
  keyword.b = Bytes(16, 0xB2);
  query.tokens.push_back(keyword);
  WireKeywordToken trapdoor;
  trapdoor.kind = 1;
  trapdoor.a = Bytes(16, 0xC3);
  query.tokens.push_back(trapdoor);
  req.queries.push_back(query);

  const Bytes good = req.Encode();
  auto decoded = SearchKeywordRequest::Decode(good);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->store_id, 1u);
  ASSERT_EQ(decoded->queries.size(), 1u);
  EXPECT_EQ(decoded->queries[0].query_id, 5u);
  EXPECT_EQ(decoded->queries[0].tokens, query.tokens);

  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SearchKeywordRequest::Decode(bad).ok()) << "cut " << cut;
  }

  // Query count beyond what the bytes can hold.
  Bytes inflated = good;
  inflated[4] = 0xff;
  EXPECT_FALSE(SearchKeywordRequest::Decode(inflated).ok());

  // Token kind outside {0, 1}.
  Bytes bad_kind = good;
  bad_kind[16] = 7;  // 4 store + 4 count + 4 id + 4 token count → kind
  EXPECT_FALSE(SearchKeywordRequest::Decode(bad_kind).ok());

  // Token part length above the per-part cap.
  SearchKeywordRequest big;
  SearchKeywordRequest::Query big_query;
  big_query.query_id = 1;
  WireKeywordToken big_token;
  big_token.kind = 1;
  big_token.a = Bytes(kMaxKeywordTokenPartBytes + 1, 0xEE);
  big_query.tokens.push_back(big_token);
  big.queries.push_back(big_query);
  EXPECT_FALSE(SearchKeywordRequest::Decode(big.Encode()).ok());

  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(SearchKeywordRequest::Decode(trailing).ok());
}

TEST(WirePayloadTest, SearchPayloadRoundTripAndCorruption) {
  SearchPayloadResult result;
  result.query_id = 9;
  result.payloads = {Bytes(8, 0x01), Bytes(24, 0x02), Bytes{}};
  const Bytes good = result.Encode();
  auto decoded = SearchPayloadResult::Decode(good);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->query_id, 9u);
  EXPECT_EQ(decoded->payloads, result.payloads);

  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SearchPayloadResult::Decode(bad).ok()) << "cut " << cut;
  }

  // Payload count far beyond what the bytes can hold.
  Bytes inflated = good;
  inflated[4] = 0xff;
  EXPECT_FALSE(SearchPayloadResult::Decode(inflated).ok());

  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(SearchPayloadResult::Decode(trailing).ok());
}

TEST(WirePayloadTest, AppendSearchPayloadsAcceptsWhatDecodeAccepts) {
  SearchPayloadResult result;
  result.query_id = 4;
  result.payloads = {Bytes(8, 0x01), Bytes{}, Bytes(40, 0x02)};
  const Bytes good = result.Encode();
  std::map<uint32_t, std::vector<Bytes>> by_query;
  by_query[4] = {Bytes(3, 0x07)};
  ASSERT_TRUE(AppendSearchPayloads(good, by_query).ok());
  ASSERT_TRUE(AppendSearchPayloads(good, by_query).ok());
  std::vector<Bytes> want = {Bytes(3, 0x07)};
  for (int i = 0; i < 2; ++i) {
    want.insert(want.end(), result.payloads.begin(), result.payloads.end());
  }
  EXPECT_EQ(by_query[4], want);
  EXPECT_EQ(by_query.size(), 1u);

  // Every truncation, an inflated count and trailing bytes fail, as they
  // fail Decode.
  std::vector<Bytes> inputs;
  for (size_t cut = 0; cut < good.size(); ++cut) {
    inputs.emplace_back(good.begin(), good.begin() + static_cast<long>(cut));
  }
  inputs.push_back(good);
  inputs.back()[4] = 0xff;
  inputs.push_back(good);
  inputs.back().push_back(0x00);
  for (const Bytes& in : inputs) {
    std::map<uint32_t, std::vector<Bytes>> sink;
    EXPECT_FALSE(SearchPayloadResult::Decode(in).ok());
    EXPECT_FALSE(AppendSearchPayloads(in, sink).ok())
        << "input of " << in.size() << " bytes";
  }
}

TEST(WirePayloadTest, ArenaFramesMatchEncodedSearchPayloads) {
  // Payload lengths 0..39 (so zero-length ones recur), 100 of them, chunked
  // the way the server frames a query at several per-frame caps.
  std::vector<Bytes> payloads;
  PayloadArena arena;
  for (size_t i = 0; i < 100; ++i) {
    Bytes p(i % 40, static_cast<uint8_t>(i));
    ASSERT_TRUE(arena.Add(ConstByteSpan(p.data(), p.size())));
    payloads.push_back(std::move(p));
  }
  ASSERT_EQ(arena.size(), payloads.size());
  for (size_t cap : {1, 2, 3, 4096}) {
    Bytes got;
    Bytes want;
    for (size_t first = 0; first < payloads.size(); first += cap) {
      const size_t count = std::min(cap, payloads.size() - first);
      ASSERT_TRUE(EncodeSearchPayloadFrame(11, arena, first, count, got));
      SearchPayloadResult chunk;
      chunk.query_id = 11;
      chunk.payloads.assign(payloads.begin() + static_cast<long>(first),
                            payloads.begin() +
                                static_cast<long>(first + count));
      const Bytes encoded = chunk.Encode();
      ASSERT_TRUE(EncodeFrame(FrameType::kSearchPayload,
                              ConstByteSpan(encoded.data(), encoded.size()),
                              want));
      EXPECT_EQ(arena.SpanBytes(first, count) + 4 * count + 12,
                encoded.size());
    }
    EXPECT_EQ(got, want) << "cap " << cap;
  }

  // An empty chunk (a query with no payloads still owes one frame).
  Bytes empty_got;
  Bytes empty_want;
  ASSERT_TRUE(
      EncodeSearchPayloadFrame(3, PayloadArena(), 0, 0, empty_got));
  SearchPayloadResult none;
  none.query_id = 3;
  const Bytes none_encoded = none.Encode();
  ASSERT_TRUE(EncodeFrame(FrameType::kSearchPayload,
                          ConstByteSpan(none_encoded.data(),
                                        none_encoded.size()),
                          empty_want));
  EXPECT_EQ(empty_got, empty_want);

  // The server reclaims each query's framed prefix; what stays frames as
  // before.
  arena.DropPrefix(37);
  ASSERT_EQ(arena.size(), 63u);
  Bytes got;
  ASSERT_TRUE(EncodeSearchPayloadFrame(11, arena, 0, 63, got));
  SearchPayloadResult rest;
  rest.query_id = 11;
  rest.payloads.assign(payloads.begin() + 37, payloads.end());
  const Bytes rest_encoded = rest.Encode();
  Bytes want;
  ASSERT_TRUE(EncodeFrame(FrameType::kSearchPayload,
                          ConstByteSpan(rest_encoded.data(),
                                        rest_encoded.size()),
                          want));
  EXPECT_EQ(got, want);
  arena.DropPrefix(arena.size());
  EXPECT_EQ(arena.size(), 0u);
}

TEST(WirePayloadTest, UpdateRoundTripAndCorruption) {
  UpdateRequest req;
  req.entries.emplace_back(MakeLabel(0x01), ToBytes("ciphertext-one"));
  req.entries.emplace_back(MakeLabel(0x02), ToBytes("ciphertext-two"));
  auto decoded = UpdateRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[0].first, MakeLabel(0x01));
  EXPECT_EQ(decoded->entries[1].second, ToBytes("ciphertext-two"));

  const Bytes good = req.Encode();
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(UpdateRequest::Decode(bad).ok()) << "cut " << cut;
  }
}

TEST(WirePayloadTest, StatsAndErrorRoundTrip) {
  StatsResponse stats;
  stats.entries = 10;
  stats.size_bytes = 100;
  stats.shards = 4;
  stats.batches_served = 3;
  stats.queries_served = 24;
  stats.tokens_received = 96;
  stats.nodes_deduped = 40;
  auto decoded = StatsResponse::Decode(stats.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->nodes_deduped, 40u);
  EXPECT_EQ(decoded->shards, 4u);

  ErrorResponse error;
  error.message = "no index hosted";
  auto decoded_err = ErrorResponse::Decode(error.Encode());
  ASSERT_TRUE(decoded_err.ok());
  EXPECT_EQ(decoded_err->message, "no index hosted");
}

}  // namespace
}  // namespace rsse::server
