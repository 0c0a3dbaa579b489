#include "sse/encrypted_multimap.h"

#include "common/env.h"
#include "common/parallel.h"
#include "crypto/aes.h"
#include "sse/emm_codec.h"

namespace rsse::sse {

namespace {

/// Encrypted entries of one build shard: labels plus ciphertexts packed
/// into a contiguous buffer (offsets are implicit — entries are appended
/// in order, so the lengths delimit them).
struct Shard {
  std::vector<Label> labels;
  std::vector<uint32_t> value_lens;
  Bytes values;
};

}  // namespace

Result<EncryptedMultimap> EncryptedMultimap::Build(
    const PlainMultimap& postings, const KeywordKeyDeriver& deriver,
    const PaddingPolicy& padding) {
  BuildOptions options;
  options.padding = padding;
  return BuildWithOptions(postings, deriver, options);
}

Result<EncryptedMultimap> EncryptedMultimap::BuildWithOptions(
    const PlainMultimap& postings, const KeywordKeyDeriver& deriver,
    const BuildOptions& options) {
  const int threads = ResolveThreadCount(options.threads,
                                         "RSSE_BUILD_THREADS");

  // Exact output size is cheap to precompute, so the table and arena are
  // sized once and never rehash or reallocate during construction.
  const EmmSizing sizing = ComputeEmmSizing(postings,
                                            options.padding.quantum);

  EncryptedMultimap index;
  index.dict_.Reserve(sizing.entries, sizing.value_bytes);

  if (threads == 1) {
    // Hot path: encrypt every ciphertext directly into the table arena.
    EmmBuildScratch scratch;
    for (const auto& [keyword, payloads] : postings) {
      Status s = EncryptKeywordEntries(
          keyword, payloads, deriver, options.padding.quantum, scratch,
          [&index](const Label& label, size_t len) {
            return index.dict_.InsertUninit(label, len);
          });
      if (!s.ok()) return s;
    }
    return index;
  }

  // Sharded build: stable keyword order, one staging shard per worker,
  // single-threaded merge into the table.
  std::vector<const std::pair<const Bytes, std::vector<Bytes>>*> items;
  items.reserve(postings.size());
  for (const auto& kv : postings) items.push_back(&kv);

  std::vector<Shard> shards(static_cast<size_t>(threads));
  std::vector<Status> shard_status(static_cast<size_t>(threads));

  auto worker = [&](int t) {
    EmmBuildScratch scratch;
    Shard& shard = shards[static_cast<size_t>(t)];
    for (size_t i = static_cast<size_t>(t); i < items.size();
         i += static_cast<size_t>(threads)) {
      Status s = EncryptKeywordEntries(
          items[i]->first, items[i]->second, deriver, options.padding.quantum,
          scratch, [&shard](const Label& label, size_t len) {
            shard.labels.push_back(label);
            shard.value_lens.push_back(static_cast<uint32_t>(len));
            const size_t old_size = shard.values.size();
            shard.values.resize(old_size + len);
            return ByteSpan(shard.values.data() + old_size, len);
          });
      if (!s.ok()) {
        shard_status[static_cast<size_t>(t)] = s;
        return;
      }
    }
  };

  RunWorkers(threads, worker);
  for (const Status& s : shard_status) {
    if (!s.ok()) return s;
  }

  for (const Shard& shard : shards) {
    size_t offset = 0;
    for (size_t i = 0; i < shard.labels.size(); ++i) {
      index.dict_.Insert(
          shard.labels[i],
          ConstByteSpan(shard.values.data() + offset, shard.value_lens[i]));
      offset += shard.value_lens[i];
    }
  }
  return index;
}

namespace {
// Blob header: magic + format version.
constexpr uint64_t kSerializeMagic = 0x52535345454d4d31ull;  // "RSSEEMM1"
}  // namespace

Bytes EncryptedMultimap::Serialize() const {
  Bytes out;
  out.reserve(16 + SizeBytes() + dict_.size() * 8);
  AppendUint64(out, kSerializeMagic);
  AppendUint64(out, dict_.size());
  dict_.ForEach([&out](const Label& label, ConstByteSpan value) {
    AppendUint32(out, static_cast<uint32_t>(label.size()));
    out.insert(out.end(), label.begin(), label.end());
    AppendUint32(out, static_cast<uint32_t>(value.size()));
    out.insert(out.end(), value.begin(), value.end());
  });
  return out;
}

Result<EncryptedMultimap> EncryptedMultimap::Deserialize(const Bytes& blob) {
  if (blob.size() < 16 || ReadUint64(blob, 0) != kSerializeMagic) {
    return Status::InvalidArgument("not an EncryptedMultimap blob");
  }
  const uint64_t count = ReadUint64(blob, 8);
  // Each entry needs at least 8 bytes of length prefixes; reject impossible
  // counts before reserving (a corrupt header must not drive allocation).
  if (count > (blob.size() - 16) / 8) {
    return Status::InvalidArgument("implausible entry count in blob header");
  }
  EncryptedMultimap index;
  // Arena size is implied by the header: total blob minus the 16-byte
  // header and each entry's 8 length bytes + 16 label bytes. A corrupt
  // header fails the entry parse below regardless.
  const size_t overhead = 16 + static_cast<size_t>(count) * (8 + kLabelBytes);
  index.dict_.Reserve(count,
                      blob.size() > overhead ? blob.size() - overhead : 0);
  size_t offset = 16;
  Label label;
  for (uint64_t i = 0; i < count; ++i) {
    if (offset + 4 > blob.size()) {
      return Status::InvalidArgument("truncated blob (label length)");
    }
    uint32_t label_len = ReadUint32(blob, offset);
    offset += 4;
    if (label_len != kLabelBytes) {
      return Status::InvalidArgument("unsupported label size in blob");
    }
    if (offset + label_len > blob.size()) {
      return Status::InvalidArgument("truncated blob (label)");
    }
    std::memcpy(label.data(), blob.data() + offset, kLabelBytes);
    offset += label_len;
    if (offset + 4 > blob.size()) {
      return Status::InvalidArgument("truncated blob (value length)");
    }
    uint32_t value_len = ReadUint32(blob, offset);
    offset += 4;
    if (value_len == 0) {
      return Status::InvalidArgument("empty value in blob");
    }
    if (offset + value_len > blob.size()) {
      return Status::InvalidArgument("truncated blob (value)");
    }
    index.dict_.Insert(label,
                       ConstByteSpan(blob.data() + offset, value_len));
    offset += value_len;
  }
  if (offset != blob.size()) {
    return Status::InvalidArgument("trailing bytes after blob payload");
  }
  return index;
}

std::vector<Bytes> EncryptedMultimap::Search(const KeywordKeys& token) const {
  return Search(token, nullptr, nullptr);
}

std::vector<Bytes> EncryptedMultimap::Search(const KeywordKeys& token,
                                             const LabelGate* gate,
                                             SearchStats* stats) const {
  std::vector<Bytes> results;
  SearchEntries(
      token, [this](const Label& label) { return dict_.Find(label); },
      results, gate, stats);
  return results;
}

Bytes EncodeIdPayload(uint64_t id) {
  Bytes out;
  AppendUint64(out, id);
  return out;
}

std::optional<uint64_t> DecodeIdPayload(ConstByteSpan payload) {
  if (payload.size() != 8) return std::nullopt;
  uint64_t id = 0;
  for (const uint8_t b : payload) id = (id << 8) | b;  // big-endian
  return id;
}

}  // namespace rsse::sse
