#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Plaintext oracle the benchmark checks every served answer against. It
// shares no code with the program under test beyond the `Record` struct:
// range answers come from binary search over sorted (value, id) pairs, and
// inserted records come from the writer's own append-only log.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/dataset.h"

namespace perfbench {

class RangeOracle {
 public:
  explicit RangeOracle(const std::vector<rsse::Record>& records) {
    by_value_.reserve(records.size());
    by_id_.reserve(records.size());
    for (const rsse::Record& r : records) {
      by_value_.emplace_back(r.attr, r.id);
      by_id_.emplace_back(r.id, r.attr);
    }
    std::sort(by_value_.begin(), by_value_.end());
    std::sort(by_id_.begin(), by_id_.end());
  }

  /// Ids whose value lies in [lo, hi], sorted ascending.
  std::vector<uint64_t> IdsInRange(uint64_t lo, uint64_t hi) const {
    std::vector<uint64_t> out;
    for (auto it = Lower(lo); it != by_value_.end() && it->first <= hi; ++it) {
      out.push_back(it->second);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Number of ids whose value lies in [lo, hi].
  size_t CountInRange(uint64_t lo, uint64_t hi) const {
    if (lo > hi) return 0;
    auto end = std::upper_bound(by_value_.begin(), by_value_.end(),
                                std::make_pair(hi, ~uint64_t{0}));
    return static_cast<size_t>(end - Lower(lo));
  }

  /// Records holding exactly value `v`.
  size_t CountOfValue(uint64_t v) const {
    size_t n = 0;
    for (auto it = Lower(v); it != by_value_.end() && it->first == v; ++it) {
      ++n;
    }
    return n;
  }

  /// The value of record `id`; false when the oracle holds no such record.
  bool ValueOf(uint64_t id, uint64_t* value) const {
    auto it = std::lower_bound(by_id_.begin(), by_id_.end(),
                               std::make_pair(id, uint64_t{0}));
    if (it == by_id_.end() || it->first != id) return false;
    *value = it->second;
    return true;
  }

  /// The ids of `candidates` whose value lies in [lo, hi], sorted: the
  /// owner's refinement of SRC-i false positives.
  std::vector<uint64_t> Refine(const std::vector<uint64_t>& candidates,
                               uint64_t lo, uint64_t hi) const {
    std::vector<uint64_t> out;
    for (uint64_t id : candidates) {
      uint64_t v = 0;
      if (ValueOf(id, &v) && v >= lo && v <= hi) out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;
  Pairs::const_iterator Lower(uint64_t v) const {
    return std::lower_bound(by_value_.begin(), by_value_.end(),
                            std::make_pair(v, uint64_t{0}));
  }

  Pairs by_value_;  // (value, id)
  Pairs by_id_;     // (id, value)
};

/// The oracle's check of read-only range answers in time linear in the
/// answer, so that checking stays a small share of the timed loop. It gives
/// the same verdicts as comparing with `IdsInRange` and `Refine`:
/// - exact answers must have no duplicate, hold only ids whose value lies
///   in the range, and hold as many ids as the oracle counts there;
/// - candidate answers must have no duplicate, and the candidates whose
///   value lies in the range must be as many as the oracle counts there.
/// In both cases the ids in range are a duplicate-free subset of the
/// oracle's set with its size, so they are that set. One checker per
/// thread: it keeps a "seen in this answer" mark per id.
class AnswerChecker {
 public:
  explicit AnswerChecker(const RangeOracle& oracle,
                         const std::vector<rsse::Record>& records)
      : oracle_(oracle) {
    uint64_t max_id = 0;
    for (const rsse::Record& r : records) max_id = std::max(max_id, r.id);
    value_of_.assign(records.empty() ? 0 : max_id + 1, kUnknown);
    for (const rsse::Record& r : records) value_of_[r.id] = r.attr;
    seen_.assign(value_of_.size(), 0);
  }

  bool Exact(uint64_t lo, uint64_t hi, const std::vector<uint64_t>& got) {
    NextAnswer();
    for (uint64_t id : got) {
      if (id >= value_of_.size() || seen_[id] == epoch_) return false;
      seen_[id] = epoch_;
      const uint64_t v = value_of_[id];
      if (v == kUnknown || v < lo || v > hi) return false;
    }
    return got.size() == oracle_.CountInRange(lo, hi);
  }

  bool Candidates(uint64_t lo, uint64_t hi,
                  const std::vector<uint64_t>& got) {
    NextAnswer();
    size_t in_range = 0;
    std::vector<uint64_t> foreign;  // ids the oracle does not hold
    for (uint64_t id : got) {
      if (id >= value_of_.size()) {
        foreign.push_back(id);
        continue;
      }
      if (seen_[id] == epoch_) return false;
      seen_[id] = epoch_;
      const uint64_t v = value_of_[id];
      if (v != kUnknown && v >= lo && v <= hi) ++in_range;
    }
    std::sort(foreign.begin(), foreign.end());
    return std::adjacent_find(foreign.begin(), foreign.end()) ==
               foreign.end() &&
           in_range == oracle_.CountInRange(lo, hi);
  }

 private:
  static constexpr uint64_t kUnknown = ~uint64_t{0};

  void NextAnswer() {
    if (++epoch_ == 0) {
      std::fill(seen_.begin(), seen_.end(), 0);
      epoch_ = 1;
    }
  }

  const RangeOracle& oracle_;
  std::vector<uint64_t> value_of_;  // by id; kUnknown where no record
  std::vector<uint32_t> seen_;      // == epoch_ once seen in this answer
  uint32_t epoch_ = 0;
};

/// The writer's log of planned inserts, fixed up front from the seed. One
/// writer publishes how many records it has sent and how many the server
/// has acknowledged; readers bound what a concurrent read may see with
/// those two counters.
class InsertLog {
 public:
  explicit InsertLog(std::vector<rsse::Record> planned)
      : planned_(std::move(planned)) {
    by_value_.reserve(planned_.size());
    for (size_t i = 0; i < planned_.size(); ++i) {
      by_value_.emplace_back(planned_[i].attr, i);
    }
    std::sort(by_value_.begin(), by_value_.end());
  }

  size_t capacity() const { return planned_.size(); }
  size_t sent() const { return sent_.load(std::memory_order_acquire); }
  size_t acked() const { return acked_.load(std::memory_order_acquire); }
  void MarkSent(size_t n) { sent_.store(n, std::memory_order_release); }
  void MarkAcked(size_t n) { acked_.store(n, std::memory_order_release); }

  /// Appends the ids among the first `count` planned records whose value
  /// lies in [lo, hi], in value order (not sorted by id).
  void AppendIdsInRange(size_t count, uint64_t lo, uint64_t hi,
                        std::vector<uint64_t>& out) const {
    auto it = std::lower_bound(by_value_.begin(), by_value_.end(),
                               std::make_pair(lo, size_t{0}));
    for (; it != by_value_.end() && it->first <= hi; ++it) {
      if (it->second < count) out.push_back(planned_[it->second].id);
    }
  }

 private:
  std::vector<rsse::Record> planned_;
  std::vector<std::pair<uint64_t, size_t>> by_value_;  // (value, index)
  std::atomic<size_t> sent_{0};
  std::atomic<size_t> acked_{0};
};

/// True when sorted `lower` ⊆ `got` ⊆ sorted `upper` (`got` is sorted here).
inline bool BetweenOracles(std::vector<uint64_t> got,
                           const std::vector<uint64_t>& lower,
                           const std::vector<uint64_t>& upper) {
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) return false;
  return std::includes(got.begin(), got.end(), lower.begin(), lower.end()) &&
         std::includes(upper.begin(), upper.end(), got.begin(), got.end());
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
