// Checks the benchmark's own arithmetic on fixed inputs: percentile rank
// selection with its sample-count rule, self-time subtraction over a nested
// span tree, and the error rate's base. Exits non-zero on the first miss.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

template <typename T>
void ExpectEq(T got, T want, const std::string& what) {
  Expect(got == want, what + ": got " + std::to_string(got) + ", want " +
                          std::to_string(want));
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending on purpose
  return v;
}

void Percentiles() {
  using perfbench::NearestRank;
  using perfbench::Percentile;
  using perfbench::SupportedTailPercentile;
  // Nearest rank: ceil(p * n / 100).
  ExpectEq<size_t>(NearestRank(100, 90), 90, "rank p90 of 100");
  ExpectEq<size_t>(NearestRank(101, 90), 91, "rank p90 of 101");
  ExpectEq<size_t>(NearestRank(10, 50), 5, "rank p50 of 10");
  ExpectEq<size_t>(NearestRank(1, 90), 1, "rank p90 of 1");
  ExpectEq(Percentile(OneTo(100), 90), 90.0, "p90 of 1..100");
  ExpectEq(Percentile(OneTo(100), 50), 50.0, "p50 of 1..100");
  ExpectEq(Percentile(OneTo(7), 50), 4.0, "p50 of 1..7");
  ExpectEq(Percentile({3.0}, 90), 3.0, "p90 of one sample");

  // p90 needs ten samples above its rank: 100 samples leave exactly 10.
  ExpectEq(SupportedTailPercentile(100), 90, "tail of 100");
  ExpectEq(SupportedTailPercentile(1000), 90, "tail of 1000");
  // 99 samples: p90 is rank 90 with 9 above; p89 is rank 89 with 10 above.
  ExpectEq(SupportedTailPercentile(99), 89, "tail of 99");
  // 50 samples: p80 is rank 40 with 10 above.
  ExpectEq(SupportedTailPercentile(50), 80, "tail of 50");
  // 20 samples: p50 is rank 10 with 10 above; nothing higher qualifies.
  ExpectEq(SupportedTailPercentile(20), 50, "tail of 20");
  ExpectEq(SupportedTailPercentile(5), 50, "tail of 5 falls back to median");
}

void SelfTimes() {
  using perfbench::Interval;
  // request [0,100)
  //   parse [0,10)
  //   execute [10,90)
  //     optimize [12,20)
  //     execution [20,85)
  //       Join [20,80)
  //         Scan [20,30)   Scan [30,50)
  //   (client gap [90,100))
  std::vector<Interval> tree = {
      {0, 100, -1},  // 0 request
      {0, 10, 0},    // 1 parse
      {10, 90, 0},   // 2 execute
      {12, 20, 2},   // 3 optimize
      {20, 85, 2},   // 4 execution phase
      {20, 80, 4},   // 5 join
      {20, 30, 5},   // 6 scan
      {30, 50, 5},   // 7 scan
  };
  std::vector<int64_t> self = perfbench::SelfTimes(tree);
  const std::vector<int64_t> want = {10, 10, 7, 8, 5, 30, 10, 20};
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectEq(self[i], want[i], "self time of span " + std::to_string(i));
  }
  int64_t sum = 0;
  for (int64_t s : self) sum += s;
  ExpectEq<int64_t>(sum, 100, "self times add up to the root");

  // Overlapping children count once; a child leaking past its parent is
  // clipped.
  std::vector<Interval> overlap = {{0, 50, -1}, {10, 30, 0}, {20, 40, 0},
                                   {45, 70, 0}};
  ExpectEq<int64_t>(perfbench::SelfTimes(overlap)[0], 15,
                    "overlapping and leaking children");

  // The trace's per-layer split of one request sums to its wall time.
  perfbench::Trace trace;
  trace.Add("noise", "x", -1, 0, 5);  // an earlier request
  int req = trace.Add("request", "engine.unattributed", -1, 100, 200);
  trace.Add("ParseSql", "sql.parse", req, 100, 110);
  int ex = trace.Add("Execute", "engine.unattributed", req, 110, 195);
  trace.Add("optimize", "catalyst.optimize", ex, 111, 120);
  int op = trace.Add("Aggregate", "exec.aggregate", ex, 120, 190);
  trace.Add("Scan", "exec.scan", op, 120, 150);
  auto layers = trace.LayerSelfNs(1);
  ExpectEq<int64_t>(layers["sql.parse"], 10, "layer sql.parse");
  ExpectEq<int64_t>(layers["catalyst.optimize"], 9, "layer catalyst.optimize");
  ExpectEq<int64_t>(layers["exec.aggregate"], 40, "layer exec.aggregate");
  ExpectEq<int64_t>(layers["exec.scan"], 30, "layer exec.scan");
  // request gap 5 + execute self (1 + 5) = 11
  ExpectEq<int64_t>(layers["engine.unattributed"], 11, "unattributed");
  int64_t total = 0;
  for (const auto& [layer, ns] : layers) total += ns;
  ExpectEq<int64_t>(total, 100, "layers add up to the request");
  ExpectEq<int64_t>(trace.spans()[req].request, 2, "request id");
}

void ErrorRates() {
  // The base is requests attempted, failures included.
  ExpectEq(perfbench::ErrorRate(1, 4), 0.25, "1 of 4 attempted");
  ExpectEq(perfbench::ErrorRate(0, 7), 0.0, "none failed");
  ExpectEq(perfbench::ErrorRate(3, 3), 1.0, "all failed");
  bool threw = false;
  try {
    perfbench::ErrorRate(0, 0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  Expect(threw, "error rate of zero attempts is refused");
}

}  // namespace

int main() {
  Percentiles();
  SelfTimes();
  ErrorRates();
  if (failures != 0) return 1;
  std::puts("selftest ok");
  return 0;
}
