#ifndef RSSE_SHARD_SHARDED_EMM_H_
#define RSSE_SHARD_SHARDED_EMM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/mapped_file.h"
#include "common/status.h"
#include "sse/emm_codec.h"
#include "sse/encrypted_multimap.h"
#include "sse/flat_label_map.h"
#include "sse/keyword_keys.h"

namespace rsse::shard {

/// Construction/IO knobs for the sharded store.
struct ShardOptions {
  /// Number of shards. 0 reads the RSSE_SHARDS environment variable,
  /// defaulting to 1. Clamped to [1, 4096].
  int shards = 0;
  /// Worker threads for build/serialize/deserialize. 0 reads
  /// RSSE_BUILD_THREADS, defaulting to 1.
  int threads = 0;
  sse::PaddingPolicy padding;
};

/// Knobs for opening a v2 store image (`OpenMapped` / `OpenMappedImage`).
struct V2OpenOptions {
  /// Verify the per-section CRC32Cs of every shard before serving. This
  /// reads the whole image — O(size), not O(1) — so the mmap serving path
  /// leaves it off (per-probe bounds checks already rule out UB) and the
  /// hostile-input tests and heap loads turn it on.
  bool verify_checksums = false;
  /// Touch every page of the image up front (synchronous page-cache
  /// warmup; the serverd --prefault pass).
  bool prefault = false;
};

/// The flat encrypted dictionary of Π_bas, hash-partitioned by label across
/// N independent `FlatLabelMap` shards so that multi-core machines build,
/// load, save and search in parallel.
///
/// Labels are PRF outputs, so any fixed byte range of a label is a uniform
/// partitioning key; routing uses bytes [8, 16) while the in-shard probe
/// hash uses bytes [0, 8) — the two are independent, so per-shard tables
/// stay uniformly loaded even conditioned on the shard choice.
///
/// Entries use the shared codec in sse/emm_codec.h, and `Serialize` is a
/// per-shard framing of the same label/ciphertext pairs: with one shard this
/// is the paper's flat dictionary, and more shards are a server-side layout,
/// not a new scheme. Build avoids the classic single-merge funnel:
/// workers encrypt keywords into per-(worker, shard) staging buckets, then
/// shards are merged *in parallel* — each shard reserves its exact final
/// size and copies only the buckets routed to it.
class ShardedEmm {
 public:
  ShardedEmm() = default;

  /// An empty store partitioned into `shards` shards (0 → RSSE_SHARDS → 1);
  /// the server-side Update path populates one of these via `Insert`.
  static ShardedEmm WithShards(int shards);

  /// Builds the sharded encrypted dictionary over `postings`. Posting order
  /// within each keyword is preserved; padding dummies (per
  /// `options.padding`) decrypt to a reserved marker and `Search` drops
  /// them. Any shard or thread count answers every search identically.
  static Result<ShardedEmm> Build(const sse::PlainMultimap& postings,
                                  const sse::KeywordKeyDeriver& deriver,
                                  const ShardOptions& options = {});

  /// Counter-probe search for one keyword token, routed across shards.
  std::vector<Bytes> Search(const sse::KeywordKeys& token) const;

  /// Instrumented search: a non-null `gate` is consulted per entry before
  /// decryption (entries it rejects are skipped as padding dummies); a
  /// non-null `stats` receives probe/decrypt/skip counts. An unknown
  /// keyword yields an empty result, like an empty posting list.
  std::vector<Bytes> Search(const sse::KeywordKeys& token,
                            const sse::LabelGate* gate,
                            sse::SearchStats* stats) const;

  /// Ciphertext stored under `label`, or nullopt. The span is invalidated
  /// by the next `Insert`.
  std::optional<ConstByteSpan> Find(const Label& label) const;

  /// Starts loading the home slot of `label` (in its shard) into cache;
  /// see `FlatLabelMap::Prefetch`.
  void Prefetch(const Label& label) const {
    if (shards_.empty()) return;
    shards_[ShardOf(label, shards_.size())].Prefetch(label);
  }

  /// Inserts one pre-encrypted entry (the batched-update path of the
  /// server: clients ship codec-format label/ciphertext pairs).
  void Insert(const Label& label, ConstByteSpan value);

  /// Serializes all shards: a header plus one independently parseable
  /// section per shard, so `Deserialize` can restore shards in parallel.
  Bytes Serialize() const;

  /// `target_shards` value asking `Deserialize` to keep the blob's stored
  /// shard count (the default: a round trip is layout-preserving).
  static constexpr int kKeepStoredShards = -1;

  /// Restores a store from `Serialize` output, loading shards with
  /// `threads` workers (0 → RSSE_BUILD_THREADS → 1). INVALID_ARGUMENT on a
  /// corrupt or foreign blob.
  ///
  /// `target_shards` re-partitions the store while loading: a blob written
  /// by a 4-core builder can be split across a 32-core server's shards (or
  /// merged down) in the same parallel pass, instead of serving forever
  /// with the builder's layout. `kKeepStoredShards` preserves the stored
  /// count; 0 re-shards to this host (RSSE_SHARDS, else the hardware
  /// concurrency); a positive count is used as given (clamped to 4096).
  /// Labels hash-route identically at any count, so re-sharding is
  /// invisible to search.
  static Result<ShardedEmm> Deserialize(const Bytes& blob, int threads = 0,
                                        int target_shards = kKeepStoredShards);

  // -------------------------------------------------------------------------
  // v2 store image: the page-aligned, mmap-native layout where the
  // serialized file IS the runtime layout (fixed header, per-shard section
  // table, then each shard's probe-ready slot table + ciphertext arena,
  // every section 4 KiB-aligned and CRC32C-checksummed). See the format
  // comment in sharded_emm.cc.
  // -------------------------------------------------------------------------

  /// Serializes all shards as a v2 image. `kind`/`epoch` are stored in the
  /// header for self-description (the snapshot container carries the
  /// authoritative copies). Leaked duplicate-overwrite bytes are compacted
  /// away: the emitted arenas total exactly the live `SizeBytes()` value
  /// bytes.
  Bytes SerializeV2(uint8_t kind = 0, uint64_t epoch = 0) const;

  /// True when `image` starts with the v2 magic (format sniffing for load
  /// paths that accept either generation).
  static bool IsV2Image(ConstByteSpan image);

  /// Maps `path` and serves straight from the file: O(1) in the image size
  /// (header + section table validated; shard bytes stay on disk until
  /// probed). The store keeps the mapping alive and `madvise`s it for
  /// random access. Mutation copies only the touched shards to heap.
  static Result<ShardedEmm> OpenMapped(const std::string& path,
                                       const V2OpenOptions& options = {});

  /// As `OpenMapped`, over the byte range [offset, offset+length) of an
  /// existing mapping (the snapshot container embeds the image at an
  /// offset). The store shares ownership of `file`.
  static Result<ShardedEmm> OpenMappedImage(
      std::shared_ptr<const MappedFile> file, size_t offset, size_t length,
      const V2OpenOptions& options = {});

  /// Loads a v2 image fully onto the heap (the --mmap=off path for v2
  /// snapshots): same validation as `OpenMapped` plus, by default, the
  /// per-section CRC pass, then a parallel copy with `threads` workers
  /// (0 → RSSE_BUILD_THREADS → 1).
  static Result<ShardedEmm> LoadV2(ConstByteSpan image, int threads = 0,
                                   bool verify_checksums = true);

  /// Bytes still served from a borrowed mapping / from owned heap arrays,
  /// summed over shards. A freshly mapped store is all mapped; WAL replay
  /// and updates migrate touched shards to heap.
  uint64_t MappedBytes() const;
  uint64_t HeapBytes() const;

  /// True while at least one shard serves from the mapping.
  bool IsMapped() const { return MappedBytes() > 0; }

  /// Shard index of a label (public so tests can pin the routing). Inline:
  /// every probe routes twice (`Prefetch`, then `Find`).
  static size_t ShardOf(const Label& label, size_t shard_count) {
    // Bytes [8, 16) route; bytes [0, 8) feed the in-shard probe hash
    // (LabelHash). Labels are PRF outputs, so both halves are
    // independently uniform. Read big-endian like the rest of the
    // serialization format, so a multi-shard blob routes identically on
    // every host. One shard (the served default) needs no division.
    if (shard_count == 1) return 0;
    uint64_t v = 0;
    for (size_t i = 8; i < kLabelBytes; ++i) v = (v << 8) | label[i];
    return static_cast<size_t>(v % shard_count);
  }

  int shard_count() const { return static_cast<int>(shards_.size()); }
  size_t EntryCount() const;
  size_t SizeBytes() const;

  /// Entries currently stored in shard `s` (load-balance introspection).
  size_t ShardEntryCount(size_t s) const { return shards_[s].size(); }

 private:
  explicit ShardedEmm(size_t shard_count) : shards_(shard_count) {}

  std::vector<sse::FlatLabelMap> shards_;
  /// Set by OpenMapped/OpenMappedImage: keeps the file mapped for as long
  /// as any shard view borrows from it (held even after every shard has
  /// migrated to heap — the mapping is cheap and the lifetime is simple).
  std::shared_ptr<const MappedFile> mapping_;
};

}  // namespace rsse::shard

#endif  // RSSE_SHARD_SHARDED_EMM_H_
