#ifndef RSSE_SSE_FLAT_LABEL_MAP_H_
#define RSSE_SSE_FLAT_LABEL_MAP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace rsse::sse {

/// Purpose-built encrypted-dictionary store: an open-addressing hash table
/// keyed by fixed-size 16-byte pseudorandom labels whose values
/// (ciphertexts) live in one contiguous arena, addressed by offset.
///
/// Compared to `std::unordered_map<Bytes, Bytes>` this removes two heap
/// allocations per entry (label vector + value vector) and every per-node
/// pointer chase: one probe is one cache line of slot metadata plus, on a
/// hit, one arena read. Labels are PRF outputs, so the first eight bytes
/// already distribute uniformly (no hash mixing) and linear probing stays
/// short at the 0.5 max load factor.
///
/// The table is insert-only (Π_bas dictionaries are built once and then
/// searched), so there are no tombstones and probe sequences never degrade;
/// growth rehashes into a table twice the size. Values must be non-empty —
/// an empty value marks a free slot; real ciphertexts are always >= 32
/// bytes.
///
/// A map can also be a *view*: slots and arena borrowed as spans into a
/// read-only mapping of the v2 store image (see `WriteV2Sections`), with
/// the slot table stored in its runtime probe layout so `Find` needs no
/// rehash and `ForEach` no decode. A view map answers `Find`/`ForEach`
/// straight from the mapping; the first mutation (`Insert`, `InsertUninit`,
/// `Reserve`) copies it to the heap and proceeds normally. The caller must
/// keep the mapped bytes alive for the view's lifetime (ShardedEmm holds
/// the mapping).
class FlatLabelMap {
 public:
  /// One packed slot record of the on-disk v2 slot table:
  /// [16B label][u64 LE arena offset][u32 LE len][u32 zero pad] — padded to
  /// 32 bytes so records never straddle cache lines and index math is a
  /// shift. len == 0 marks a free slot, as in memory.
  static constexpr size_t kSlotRecordBytes = 32;

  FlatLabelMap() = default;

  /// Wraps borrowed v2 sections without copying. `slots` is the packed
  /// slot table (`capacity * kSlotRecordBytes`, capacity a power of two),
  /// `arena` the ciphertext arena, `entries`/`value_bytes` the counts the
  /// image header claims. Validation is O(1) — structural invariants only
  /// (capacity a power of two, load factor <= 1/2, arena == value_bytes),
  /// NOT a scan of the records; probing bounds-checks every record it
  /// reads, so hostile slot contents yield misses, never UB.
  static Result<FlatLabelMap> View(ConstByteSpan slots, ConstByteSpan arena,
                                   uint64_t entries, uint64_t value_bytes);

  /// Pre-sizes the table for `n` entries and `value_bytes` of arena (both
  /// may be 0; the table grows as needed).
  void Reserve(size_t n, size_t value_bytes = 0);

  /// Inserts `value` under `label`; overwrites on duplicate label (the old
  /// arena bytes are leaked until destruction — see `LeakedBytes` — which
  /// matches map semantics without tombstone machinery; duplicates never
  /// occur in PRF-labelled dictionaries). Empty values are ignored.
  void Insert(const Label& label, ConstByteSpan value);

  /// Arena-append insertion for producers that write the value in place
  /// (e.g. encrypting directly into the table): reserves `len > 0` bytes
  /// under `label` and returns the span to fill. Duplicate-label semantics
  /// as `Insert`. The span is invalidated by the next insertion.
  ByteSpan InsertUninit(const Label& label, size_t len);

  /// Value stored under `label`, or nullopt. The span points into the
  /// arena and is invalidated by the next `Insert`.
  std::optional<ConstByteSpan> Find(const Label& label) const;

  /// Starts loading the home slot of `label` into cache, so a `Find`
  /// issued a few probes later overlaps its miss with other work. A hint
  /// only: reads nothing and is a no-op on an empty map.
  void Prefetch(const Label& label) const {
    if (is_view_) {
      __builtin_prefetch(view_slots_.data() +
                         (LabelHash{}(label) & (view_capacity_ - 1)) *
                             kSlotRecordBytes);
    } else if (!slots_.empty()) {
      __builtin_prefetch(&slots_[LabelHash{}(label) & (slots_.size() - 1)]);
    }
  }

  /// Number of stored entries.
  size_t size() const { return size_; }

  /// Arena bytes in use (sum of stored value lengths). Excludes bytes
  /// leaked by duplicate-label overwrites — `ArenaBytes()` is the real
  /// arena footprint.
  size_t ValueBytes() const { return value_bytes_; }

  /// Total arena footprint: live value bytes plus leaked overwrite bytes.
  size_t ArenaBytes() const { return is_view_ ? view_arena_.size()
                                              : arena_.size(); }

  /// Dead arena bytes left behind by duplicate-label overwrites. The v2
  /// serializer compacts these away (its emitted arena is exactly
  /// `ValueBytes()` long).
  size_t LeakedBytes() const { return leaked_bytes_; }

  /// Slot-table capacity (a power of two, or 0 before the first insert).
  size_t SlotCount() const {
    return is_view_ ? view_capacity_ : slots_.size();
  }

  /// True while serving from borrowed (mapped) sections.
  bool IsView() const { return is_view_; }

  /// Bytes served from the borrowed mapping (slot table + arena); 0 once
  /// copied to heap.
  size_t MappedBytes() const {
    return is_view_ ? view_slots_.size() + view_arena_.size() : 0;
  }

  /// Bytes of owned slot-table + arena storage; 0 while a pure view.
  size_t HeapBytes() const {
    return slots_.size() * sizeof(Slot) + arena_.size();
  }

  /// Copies a view into owned storage (no-op for heap maps): same
  /// capacity, arena compacted to `ValueBytes()`. Records whose offsets
  /// fall outside the borrowed arena (possible only for corrupt,
  /// unverified images) are dropped.
  void EnsureHeap();

  /// Byte sizes of the packed v2 sections `WriteV2Sections` emits: the
  /// slot table is `SlotCount() * kSlotRecordBytes`, the arena exactly
  /// `ValueBytes()` (leaked overwrite bytes are compacted away).
  size_t V2SlotsBytes() const { return SlotCount() * kSlotRecordBytes; }
  size_t V2ArenaBytes() const { return value_bytes_; }

  /// Writes the packed slot table and compacted arena into `slots_out` /
  /// `arena_out`, which must be exactly `V2SlotsBytes()` /
  /// `V2ArenaBytes()` long. Returns the arena bytes written — equal to
  /// `V2ArenaBytes()` for any well-formed map (asserted; the sizing
  /// contract of the store format).
  size_t WriteV2Sections(ByteSpan slots_out, ByteSpan arena_out) const;

  /// Invokes `fn(const Label&, ConstByteSpan)` for every entry, in
  /// unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (is_view_) {
      for (size_t i = 0; i < view_capacity_; ++i) {
        const uint8_t* rec = view_slots_.data() + i * kSlotRecordBytes;
        const uint32_t len = LoadU32Le(rec + kLabelBytes + 8);
        if (len == 0) continue;
        const uint64_t offset = LoadU64Le(rec + kLabelBytes);
        if (offset > view_arena_.size() ||
            len > view_arena_.size() - offset) {
          continue;  // corrupt unverified record: skip, never over-read
        }
        Label label;
        std::memcpy(label.data(), rec, kLabelBytes);
        fn(label, ConstByteSpan(view_arena_.data() + offset, len));
      }
      return;
    }
    for (const Slot& s : slots_) {
      if (s.len != 0) {
        fn(s.label, ConstByteSpan(arena_.data() + s.offset, s.len));
      }
    }
  }

 private:
  struct Slot {
    Label label{};
    uint64_t offset = 0;
    uint32_t len = 0;  // 0 marks a free slot
  };

  /// Grows (or initially sizes) the slot array to `capacity` (power of
  /// two) and rehashes existing entries.
  void Rehash(size_t capacity);

  /// Index of the slot holding `label`, or of the free slot where it
  /// belongs. Requires a non-full table.
  size_t ProbeSlot(const Label& label) const;

  std::vector<Slot> slots_;
  Bytes arena_;
  size_t size_ = 0;
  size_t value_bytes_ = 0;
  size_t leaked_bytes_ = 0;

  // View state: borrowed sections of a mapped v2 image. view_capacity_ is
  // view_slots_.size() / kSlotRecordBytes, cached for the probe hot path.
  bool is_view_ = false;
  ConstByteSpan view_slots_;
  ConstByteSpan view_arena_;
  size_t view_capacity_ = 0;
};

}  // namespace rsse::sse

#endif  // RSSE_SSE_FLAT_LABEL_MAP_H_
