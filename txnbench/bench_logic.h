// Pure helpers of the end-to-end transaction benchmark: order statistics,
// span self-time and Execute gap attribution, and the metric-name rule.
// Nothing here touches the database, so `txnbench_selftest` can check it
// on hand-built inputs.

#ifndef TXNBENCH_BENCH_LOGIC_H_
#define TXNBENCH_BENCH_LOGIC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace txnbench {

/// Nearest-rank percentile `p` in [0, 100] of `values` (copied, then
/// partially sorted); 0 when empty.
double Percentile(std::vector<double> values, double p);

/// The 50th percentile.
double Median(std::vector<double> values);

/// The highest of {99.9, 99, 95, 90, 50} that leaves at least
/// `min_beyond` of `n` samples above its rank; 0 when none does.  A tail
/// percentile is only reported where the sample supports it.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// Percentile `p` in [0, 100] of a log2-bucketed histogram (bucket 0
/// holds 0, bucket b >= 1 holds [2^(b-1), 2^b)), interpolated linearly
/// inside the bucket the rank falls in, the way Prometheus'
/// histogram_quantile reads buckets; 0 when empty.
double BucketPercentile(const std::vector<uint64_t>& buckets, double p);

/// Indices, in round order, of the rounds the reported medians use, by
/// `steal_share`, the share of CPU time the hypervisor took while each
/// round ran: every round at or below 1%, or, when fewer than a quarter of
/// the rounds are that clean, every round stolen from no more than the
/// ceil(n/4)-th least-stolen one.  A burst of other tenants' load
/// stalls client threads mid-call and moves the rate and the tail by more
/// than run-to-run noise; the rounds it hit drop out.
std::vector<size_t> LeastStolenRounds(const std::vector<double>& steal_share);

/// What a span measures.  `kExecute` is the root of one `Execute` call;
/// each attempt of the body is a `kBody` child; each keyed operation is a
/// `kRead` or `kWrite` child of its body; `kRecover` is a root around
/// restart recovery.
enum class SpanKind : uint8_t { kExecute, kBody, kRead, kWrite, kRecover };

/// Name used in span dumps ("execute", "body", ...).
const char* SpanKindName(SpanKind kind);

/// One timed interval.  Spans of one `Execute` call share `trace_id`;
/// `parent` indexes the causing span in the same buffer (-1 for a root).
struct Span {
  uint64_t trace_id = 0;
  int32_t parent = -1;
  SpanKind kind = SpanKind::kExecute;
  bool cross_shard = false;  ///< execute spans of multi-shard transactions
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span in `spans`: its duration minus the part of its
/// interval covered by the union of its children's intervals.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Where one `Execute` call spent the time outside its body attempts.
struct GapBreakdown {
  int attempts = 0;
  int64_t begin_ns = 0;   ///< call entry to the first body's entry
  int64_t commit_ns = 0;  ///< last body's exit to call return
  int64_t retry_ns = 0;   ///< sum of the gaps between consecutive bodies
};

/// Splits the execute span `call` into begin / commit / retry gaps around
/// `bodies`, its body attempts (taken in start order).  A call with no
/// body attempt charges its whole duration to begin.
GapBreakdown AttributeGaps(const Span& call, std::vector<Span> bodies);

/// True for a name the benchmark may print: 1 to 64 of [A-Za-z0-9_.-],
/// starting with a letter or a digit.
bool IsValidMetricName(const std::string& name);

}  // namespace txnbench

#endif  // TXNBENCH_BENCH_LOGIC_H_
