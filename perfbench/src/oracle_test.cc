// Small self-checks of the benchmark's plaintext oracle: a brute-force scan
// over random datasets must agree with every binary-search answer.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "oracle.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<uint64_t> Scan(const std::vector<rsse::Record>& recs, uint64_t lo,
                           uint64_t hi) {
  std::vector<uint64_t> out;
  for (const rsse::Record& r : recs) {
    if (r.attr >= lo && r.attr <= hi) out.push_back(r.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RangeAnswersMatchScan() {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const uint64_t domain = 1 + rng() % 200;
    std::vector<rsse::Record> recs;
    const size_t n = rng() % 300;
    for (size_t i = 0; i < n; ++i) {
      recs.push_back(rsse::Record{1000 + 3 * i, rng() % domain});
    }
    const perfbench::RangeOracle oracle(recs);
    for (int q = 0; q < 40; ++q) {
      uint64_t lo = rng() % domain;
      uint64_t hi = lo + rng() % (domain - lo);
      Check(oracle.IdsInRange(lo, hi) == Scan(recs, lo, hi), "IdsInRange");
      Check(oracle.CountOfValue(lo) == Scan(recs, lo, lo).size(),
            "CountOfValue");
      Check(oracle.CountInRange(lo, hi) == Scan(recs, lo, hi).size(),
            "CountInRange");
    }
    for (const rsse::Record& r : recs) {
      uint64_t v = ~uint64_t{0};
      Check(oracle.ValueOf(r.id, &v) && v == r.attr, "ValueOf present");
    }
    uint64_t v = 0;
    Check(!oracle.ValueOf(1, &v), "ValueOf absent");
  }
}

void RefineDropsFalsePositives() {
  const std::vector<rsse::Record> recs = {{1, 5}, {2, 9}, {3, 10}, {4, 20}};
  const perfbench::RangeOracle oracle(recs);
  Check(oracle.Refine({4, 3, 2, 1, 99}, 9, 10) ==
            std::vector<uint64_t>({2, 3}),
        "Refine keeps exactly the in-range known ids");
}

// The linear-time checker must give the verdict of the exact comparison
// with IdsInRange / Refine, on right answers and on answers with one id
// dropped, duplicated, replaced or added.
void CheckerAgreesWithExactComparison() {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const uint64_t domain = 1 + rng() % 100;
    std::vector<rsse::Record> recs;
    const size_t n = 1 + rng() % 200;
    for (size_t i = 0; i < n; ++i) {
      recs.push_back(rsse::Record{2 * i, rng() % domain});  // gaps: odd ids
    }
    const perfbench::RangeOracle oracle(recs);
    perfbench::AnswerChecker checker(oracle, recs);
    for (int q = 0; q < 40; ++q) {
      const uint64_t lo = rng() % domain;
      const uint64_t hi = lo + rng() % (domain - lo);
      const std::vector<uint64_t> exact = oracle.IdsInRange(lo, hi);
      std::vector<uint64_t> got = exact;
      // Candidates: the exact set plus some false positives, shuffled.
      std::vector<uint64_t> cands = exact;
      for (const rsse::Record& r : recs) {
        if ((r.attr < lo || r.attr > hi) && rng() % 3 == 0) {
          cands.push_back(r.id);
        }
      }
      if (rng() % 2 == 0) cands.push_back(2 * n + 1 + 2 * (rng() % 5));
      std::shuffle(cands.begin(), cands.end(), rng);
      switch (rng() % 5) {
        case 0:
          break;
        case 1:
          if (!got.empty()) got.erase(got.begin() + rng() % got.size());
          if (!cands.empty()) cands.erase(cands.begin() + rng() % cands.size());
          break;
        case 2:
          if (!got.empty()) got.push_back(got[rng() % got.size()]);
          if (!cands.empty()) cands.push_back(cands[rng() % cands.size()]);
          break;
        case 3:
          if (!got.empty()) got[rng() % got.size()] = 2 * (rng() % n);
          if (!cands.empty()) cands[rng() % cands.size()] = 2 * (rng() % n);
          break;
        case 4:
          got.push_back(rng() % (2 * n + 4));
          cands.push_back(rng() % (2 * n + 4));
          break;
      }
      std::vector<uint64_t> sorted_got = got;
      std::sort(sorted_got.begin(), sorted_got.end());
      Check(checker.Exact(lo, hi, got) == (sorted_got == exact),
            "Exact agrees with IdsInRange");
      std::vector<uint64_t> sorted_cands = cands;
      std::sort(sorted_cands.begin(), sorted_cands.end());
      const bool want =
          std::adjacent_find(sorted_cands.begin(), sorted_cands.end()) ==
              sorted_cands.end() &&
          oracle.Refine(cands, lo, hi) == exact;
      Check(checker.Candidates(lo, hi, cands) == want,
            "Candidates agrees with Refine");
    }
  }
}

void InsertLogBoundsConcurrentReads() {
  perfbench::InsertLog log({{100, 7}, {101, 3}, {102, 7}, {103, 50}});
  log.MarkSent(3);
  log.MarkAcked(1);
  std::vector<uint64_t> lower, upper;
  log.AppendIdsInRange(log.acked(), 0, 10, lower);
  log.AppendIdsInRange(log.sent(), 0, 10, upper);
  std::sort(upper.begin(), upper.end());
  Check(lower == std::vector<uint64_t>({100}), "acked prefix");
  Check(upper == std::vector<uint64_t>({100, 101, 102}), "sent prefix");
  Check(perfbench::BetweenOracles({101, 100}, lower, upper),
        "a read that saw an in-flight insert is accepted");
  Check(!perfbench::BetweenOracles({101}, lower, upper),
        "a read missing an acknowledged insert is rejected");
  Check(!perfbench::BetweenOracles({100, 103}, lower, upper),
        "a read holding an unsent insert is rejected");
  Check(!perfbench::BetweenOracles({100, 100}, lower, upper),
        "a duplicated id is rejected");
}

}  // namespace

int main() {
  RangeAnswersMatchScan();
  RefineDropsFalsePositives();
  CheckerAgreesWithExactComparison();
  InsertLogBoundsConcurrentReads();
  if (failures != 0) {
    std::fprintf(stderr, "%d oracle check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("oracle_test: all checks passed\n");
  return EXIT_SUCCESS;
}
