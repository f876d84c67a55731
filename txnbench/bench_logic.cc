#include "bench_logic.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <tuple>

namespace txnbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  // Nearest rank: the smallest value with at least p% of samples <= it.
  size_t rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return p;
  }
  return 0.0;
}

double BucketPercentile(const std::vector<uint64_t>& buckets, double p) {
  uint64_t total = 0;
  for (uint64_t n : buckets) total += n;
  if (total == 0) return 0.0;
  const double rank =
      std::min(100.0, std::max(0.0, p)) / 100.0 * static_cast<double>(total);
  double before = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double n = static_cast<double>(buckets[b]);
    if (rank <= before + n || b + 1 == buckets.size()) {
      if (b == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      const double frac = std::min(1.0, std::max(0.0, (rank - before) / n));
      return lo + lo * frac;  // the bucket spans [lo, 2 lo)
    }
    before += n;
  }
  return 0.0;
}

std::vector<size_t> LeastStolenRounds(const std::vector<double>& steal_share) {
  constexpr double kCleanShare = 0.01;  // one 10 ms tick of a typical round
  if (steal_share.empty()) return {};
  std::vector<double> sorted = steal_share;
  std::sort(sorted.begin(), sorted.end());
  const double cutoff = std::max(kCleanShare, sorted[(sorted.size() + 3) / 4 - 1]);
  std::vector<size_t> kept;
  for (size_t i = 0; i < steal_share.size(); ++i) {
    if (steal_share[i] <= cutoff) kept.push_back(i);
  }
  return kept;
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kExecute: return "execute";
    case SpanKind::kBody: return "body";
    case SpanKind::kRead: return "read";
    case SpanKind::kWrite: return "write";
    case SpanKind::kRecover: return "recover";
  }
  return "?";
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  // (parent, start, end) of every child, clipped to its parent, grouped by
  // parent and ordered by start so overlapping children merge in one pass.
  std::vector<std::tuple<int32_t, int64_t, int64_t>> kids;
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids.emplace_back(s.parent, lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  for (size_t i = 0; i < kids.size();) {
    const int32_t parent = std::get<0>(kids[i]);
    int64_t covered = 0;
    int64_t lo = std::get<1>(kids[i]);
    int64_t hi = std::get<2>(kids[i]);
    for (++i; i < kids.size() && std::get<0>(kids[i]) == parent; ++i) {
      if (std::get<1>(kids[i]) > hi) {
        covered += hi - lo;
        lo = std::get<1>(kids[i]);
        hi = std::get<2>(kids[i]);
      } else {
        hi = std::max(hi, std::get<2>(kids[i]));
      }
    }
    covered += hi - lo;
    self[static_cast<size_t>(parent)] -= covered;
  }
  return self;
}

GapBreakdown AttributeGaps(const Span& call, std::vector<Span> bodies) {
  std::sort(bodies.begin(), bodies.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  GapBreakdown g;
  g.attempts = static_cast<int>(bodies.size());
  if (bodies.empty()) {
    g.begin_ns = call.end_ns - call.start_ns;
    return g;
  }
  g.begin_ns = bodies.front().start_ns - call.start_ns;
  g.commit_ns = call.end_ns - bodies.back().end_ns;
  for (size_t i = 1; i < bodies.size(); ++i) {
    g.retry_ns += bodies[i].start_ns - bodies[i - 1].end_ns;
  }
  return g;
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace txnbench
