// Checks of the benchmark's own arithmetic: percentile choice, histogram
// percentiles, span self time, and the begin / commit / retry attribution
// of retried calls.
// Exits 1 on the first failed expectation.  Run through txnbench_test.py.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_logic.h"

namespace txnbench {
namespace {

int failures = 0;

#define EXPECT_EQ(a, b)                                                   \
  do {                                                                    \
    const auto va = (a);                                                  \
    const auto vb = (b);                                                  \
    if (!(va == vb)) {                                                    \
      std::fprintf(stderr, "%s:%d: %s == %s failed\n", __FILE__, __LINE__, \
                   #a, #b);                                               \
      ++failures;                                                         \
    }                                                                     \
  } while (false)

Span S(SpanKind kind, int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.kind = kind;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestHighestSupportedPercentile() {
  // p99.9 needs 10 samples beyond it, so 10,000 samples.
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(1000, 100), 90.0);
}

void TestPercentile() {
  const std::vector<double> v = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(Percentile(v, 50), 5.0);
  EXPECT_EQ(Percentile(v, 90), 9.0);
  EXPECT_EQ(Percentile(v, 91), 10.0);
  EXPECT_EQ(Percentile(v, 100), 10.0);
  EXPECT_EQ(Percentile(v, 0), 1.0);
  EXPECT_EQ(Median({4, 1, 3}), 3.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

void TestBucketPercentileInterpolates() {
  // Bucket 2 holds [2, 4), bucket 3 holds [4, 8); four samples in each.
  const std::vector<uint64_t> b = {0, 0, 4, 4};
  EXPECT_EQ(BucketPercentile(b, 25), 3.0);
  EXPECT_EQ(BucketPercentile(b, 50), 4.0);
  EXPECT_EQ(BucketPercentile(b, 75), 6.0);
  EXPECT_EQ(BucketPercentile(b, 100), 8.0);
  EXPECT_EQ(BucketPercentile(b, 0), 2.0);
  EXPECT_EQ(BucketPercentile({5, 0, 0}, 90), 0.0);
  EXPECT_EQ(BucketPercentile({0, 0, 0}, 50), 0.0);
  EXPECT_EQ(BucketPercentile({}, 50), 0.0);
}

void TestLeastStolenRounds() {
  using Idx = std::vector<size_t>;
  EXPECT_EQ(LeastStolenRounds({}), Idx{});
  // No steal anywhere: every round counts.
  EXPECT_EQ(LeastStolenRounds({0, 0, 0, 0}), (Idx{0, 1, 2, 3}));
  // Rounds hit by host load drop out; up to 1% steal counts as clean.
  EXPECT_EQ(LeastStolenRounds({0, 0.3, 0, 0.01, 0.2}), (Idx{0, 2, 3}));
  EXPECT_EQ(LeastStolenRounds({0.3, 0.2, 0.005, 0.4, 0.003, 0.2, 0.1, 0.3}), (Idx{2, 4}));
  // Fewer than a quarter clean: the least-stolen quarter, ties kept, in
  // round order.
  EXPECT_EQ(LeastStolenRounds({0.3, 0.2, 0.005, 0.4, 0.3, 0.2}), (Idx{1, 2, 5}));
  EXPECT_EQ(LeastStolenRounds({0.4, 0.1, 0.3, 0.2}), Idx{1});
  EXPECT_EQ(LeastStolenRounds({0.2, 0.05, 0.1, 0.05, 0.2, 0.1, 0.3, 0.2}), (Idx{1, 3}));
  EXPECT_EQ(LeastStolenRounds({0.2, 0.05, 0.1, 0.05, 0.2, 0.1, 0.3, 0.2, 0.1}),
            (Idx{1, 2, 3, 5, 8}));
  EXPECT_EQ(LeastStolenRounds({0.5}), Idx{0});
}

void TestSelfTimeSubtractsTheUnionOfChildren() {
  // Overlapping children count once; a child running past its parent is
  // clipped to the parent's interval.
  const std::vector<Span> spans = {
      S(SpanKind::kBody, -1, 0, 100),
      S(SpanKind::kRead, 0, 10, 30),
      S(SpanKind::kRead, 0, 20, 40),
      S(SpanKind::kWrite, 0, 90, 120),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[3], 30);
}

void TestRetriedCallAttribution() {
  // One Execute whose first attempt failed and was retried:
  //   execute [0, 1000]
  //     body  [100, 400]  read [150, 200]  write [250, 300]
  //     body  [600, 900]  read [700, 800]
  const std::vector<Span> spans = {
      S(SpanKind::kExecute, -1, 0, 1000),
      S(SpanKind::kBody, 0, 100, 400),
      S(SpanKind::kRead, 1, 150, 200),
      S(SpanKind::kWrite, 1, 250, 300),
      S(SpanKind::kBody, 0, 600, 900),
      S(SpanKind::kRead, 4, 700, 800),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 400);  // begin + retry gap + commit
  EXPECT_EQ(self[1], 200);
  EXPECT_EQ(self[4], 200);

  // Bodies given out of order are attributed in start order.
  const GapBreakdown g = AttributeGaps(spans[0], {spans[4], spans[1]});
  EXPECT_EQ(g.attempts, 2);
  EXPECT_EQ(g.begin_ns, 100);
  EXPECT_EQ(g.retry_ns, 200);
  EXPECT_EQ(g.commit_ns, 100);
  EXPECT_EQ(g.begin_ns + g.retry_ns + g.commit_ns, self[0]);

  const GapBreakdown once = AttributeGaps(spans[0], {spans[1]});
  EXPECT_EQ(once.attempts, 1);
  EXPECT_EQ(once.retry_ns, 0);
  EXPECT_EQ(once.commit_ns, 600);

  const GapBreakdown none = AttributeGaps(spans[0], {});
  EXPECT_EQ(none.attempts, 0);
  EXPECT_EQ(none.begin_ns, 1000);
}

void TestMetricNames() {
  EXPECT_EQ(IsValidMetricName("locking.txn_per_s"), true);
  EXPECT_EQ(IsValidMetricName("ssi.shard.decision_us_p50"), true);
  EXPECT_EQ(IsValidMetricName("9a-b_c.d"), true);
  EXPECT_EQ(IsValidMetricName(std::string(64, 'a')), true);
  EXPECT_EQ(IsValidMetricName(std::string(65, 'a')), false);
  EXPECT_EQ(IsValidMetricName(""), false);
  EXPECT_EQ(IsValidMetricName(".x"), false);
  EXPECT_EQ(IsValidMetricName("a b"), false);
  EXPECT_EQ(IsValidMetricName("a/b"), false);
}

}  // namespace
}  // namespace txnbench

int main() {
  txnbench::TestHighestSupportedPercentile();
  txnbench::TestPercentile();
  txnbench::TestBucketPercentileInterpolates();
  txnbench::TestLeastStolenRounds();
  txnbench::TestSelfTimeSubtractsTheUnionOfChildren();
  txnbench::TestRetriedCallAttribution();
  txnbench::TestMetricNames();
  if (txnbench::failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", txnbench::failures);
    return 1;
  }
  std::printf("txnbench_selftest: all checks passed\n");
  return 0;
}
