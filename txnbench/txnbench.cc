// txnbench: the end-to-end transaction benchmark.
//
// One process, four closed-loop client threads, each calling
// `Execute` and sending its next transaction only when the previous call
// returned.  Three workloads, each at four isolation levels:
//
//   disjoint     65,536 items, each client owns a 16,384-item slice and
//                increments 4 uniform items of it: no shared keys, so no
//                lock waits or aborts; any cost above the 1-client rate is
//                latching, begin, recorder or store cost.
//   hot          4,096 items, Zipf(0.99) keys, 8 operations of which 20%
//                read-and-increment: the Section 4.2 contrast between
//                readers queueing behind writers (locking, Oracle RC) and
//                writers aborting (SI, SSI).
//   durable_2pc  4 shards over 16,384 items, one group-commit WAL each
//                plus the persistent 2PC decision log (simulated 100 us
//                syncs), uniform transfers of which 25% cross shards;
//                after the run the facade is dropped and recovered.
//
// Every workload keeps the shipped DbOptions defaults (kRetainAll version
// GC, the kMap store, online checker off) except what the traffic needs:
// kBlocking mode, the library's backoff retry policy, and the WAL plus
// shards for durable_2pc.
//
// Each level runs a fixed number of transactions per round (so memory,
// log bytes and recovery compare like with like across commits); rounds
// repeat, levels interleaved, until --seconds is used, and the medians
// over rounds are reported.  --trace 0 prints the end-to-end metrics;
// --trace 1 prints the per-layer metrics, timed from spans this file
// records around calls into the public API.  Every round's output is
// checked; a failed check makes the run exit 1.
//
//   txnbench --workload disjoint|hot|durable_2pc --seed N --seconds S
//            --trace 0|1 [--commit SHA] [--spans-dir DIR]
//   txnbench --list-metrics

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_logic.h"
#include "critique/db/database.h"
#include "critique/shard/sharded_database.h"

#ifndef TXNBENCH_BUILD_TYPE
#define TXNBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TXNBENCH_SANITIZER
#define TXNBENCH_SANITIZER ""
#endif

namespace txnbench {
namespace {

using critique::ConcurrencyMode;
using critique::Database;
using critique::DbOptions;
using critique::FsyncMode;
using critique::IsolationLevel;
using critique::ItemId;
using critique::Result;
using critique::ShardedDatabase;
using critique::ShardedDbOptions;
using critique::ShardedTransaction;
using critique::Status;
using critique::Transaction;
using critique::Value;
using critique::obs::HistogramSnapshot;
using critique::obs::MetricSample;

constexpr int kClients = 4;
constexpr int64_t kInitialBalance = 1000;

// --- metric catalog -----------------------------------------------------------
//
// The single list of every name the benchmark prints; BENCHMARK.json must
// list the same names (txnbench_test.py checks both directions).

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

struct Level {
  const char* name;
  IsolationLevel iso;
};

const Level kLevels[] = {
    {"locking", IsolationLevel::kSerializable},
    {"si", IsolationLevel::kSnapshotIsolation},
    {"orc", IsolationLevel::kOracleReadConsistency},
    {"ssi", IsolationLevel::kSerializableSI},
};
constexpr size_t kNumLevels = sizeof(kLevels) / sizeof(kLevels[0]);

const MetricDef kLevelEndToEnd[] = {
    {"txn_per_s", "1/s", "higher"},
    {"p50_us", "us", "lower"},
    {"p90_us", "us", "lower"},
};

const MetricDef kRunEndToEnd[] = {
    {"commit_frac", "ratio", "higher"},
    {"setup_s", "s", "lower"},
    {"heap_mb", "MB", "lower"},
    {"recover_s", "s", "lower"},
};

const MetricDef kLevelLayer[] = {
    {"db.begin_us", "us", "lower"},
    {"db.read_us", "us", "lower"},
    {"db.write_us", "us", "lower"},
    {"db.commit_us", "us", "lower"},
    {"db.retry_us", "us", "lower"},
    {"db.retries_per_txn", "count", "lower"},
    {"db.t4_over_t1", "ratio", "higher"},
    {"engine.abort_ratio", "ratio", "lower"},
    {"engine.validate_us_p50", "us", "lower"},
    {"engine.publish_us_p50", "us", "lower"},
    {"lock.waits_per_txn", "count", "lower"},
    {"lock.wait_us_p50", "us", "lower"},
    {"lock.wait_us_p90", "us", "lower"},
    {"lock.deadlocks", "count", "lower"},
    {"lock.timeouts", "count", "lower"},
    {"storage.version_count", "count", "lower"},
    {"storage.max_chain", "count", "lower"},
    {"wal.syncs_per_commit", "ratio", "lower"},
    {"wal.batch_mean", "count", "higher"},
    {"wal.fsync_us_p50", "us", "lower"},
    {"wal.bytes_per_txn", "B", "lower"},
    {"shard.cross_commit_us", "us", "lower"},
    {"shard.local_commit_us", "us", "lower"},
    {"shard.prepare_us_p50", "us", "lower"},
    {"shard.decision_us_p50", "us", "lower"},
    {"shard.cross_ratio", "ratio", "lower"},
    {"shard.decision_aborts", "count", "lower"},
    {"trace.overhead", "ratio", "higher"},
};

void ListMetrics() {
  for (const Level& l : kLevels) {
    for (const MetricDef& m : kLevelEndToEnd) {
      std::printf("end_to_end %s.%s %s %s\n", l.name, m.name, m.unit, m.better);
    }
  }
  for (const MetricDef& m : kRunEndToEnd) {
    std::printf("end_to_end %s %s %s\n", m.name, m.unit, m.better);
  }
  for (const Level& l : kLevels) {
    for (const MetricDef& m : kLevelLayer) {
      std::printf("per_layer %s.%s %s %s\n", l.name, m.name, m.unit, m.better);
    }
  }
}

// --- workloads ----------------------------------------------------------------

enum class Kind { kDisjoint, kHot, kDurable2pc };

struct Workload {
  const char* name;
  Kind kind;
  uint32_t items;
  /// Transactions per client per round, by level (kLevels order).  Fixed,
  /// never time-derived: SSI under kRetainAll slows with every commit, so
  /// only equal counts compare.
  std::array<uint64_t, kNumLevels> txns_per_client;
  /// Rounds of each level per cycle.  Short SSI rounds, several a cycle:
  /// the longer a round, the likelier the host steals CPU time from it,
  /// and SSI, whose calls are the longest and queue on each other in
  /// `Begin`, loses the most to a stall.
  std::array<int, kNumLevels> rounds_per_cycle;
};

const Workload kWorkloads[] = {
    {"disjoint", Kind::kDisjoint, 65536, {1000, 1000, 1000, 125}, {1, 1, 1, 2}},
    {"hot", Kind::kHot, 4096, {1000, 1000, 1000, 125}, {1, 1, 1, 3}},
    {"durable_2pc", Kind::kDurable2pc, 16384, {1500, 1500, 1500, 500}, {1, 1, 1, 1}},
};

constexpr int kDisjointOps = 4;
constexpr int kHotOps = 8;
constexpr double kHotTheta = 0.99;
constexpr double kHotWriteShare = 0.2;
constexpr int kShards = 4;
constexpr double kCrossShare = 0.25;
constexpr auto kFsyncLatency = std::chrono::microseconds(100);

/// The one departure from the default retry policy: the library's stock
/// `ExponentialBackoffRetryPolicy` (sleeping 100 us doubling to 10 ms)
/// with a restart budget a closed-loop client that must commit would use,
/// in place of 8 immediate restarts.  Immediate restarts livelock on this
/// traffic: on `hot`, two locking calls that both read and then write a
/// hot key deadlock again on every restart; on `durable_2pc`, a call that
/// meets a prepared participant's write reservation spends its whole budget
/// before the 2PC decision lands.  Eight restarts with backoff are not
/// enough either: the lock manager picks the restarted (younger) call as
/// deadlock victim again and again, so a few `hot` calls per run gave up
/// after 9 body runs.  Retries show in `db.retries_per_txn`, `db.retry_us`
/// and the latency tail instead.
constexpr int kMaxRestarts = 1000;

std::shared_ptr<const critique::RetryPolicy> ClientRetryPolicy() {
  static const auto policy =
      std::make_shared<critique::ExponentialBackoffRetryPolicy>(kMaxRestarts);
  return policy;
}

/// One transaction's inputs, drawn before `Execute` so every retry of the
/// body replays the same keys.  disjoint / hot: `n` operations on `item`,
/// writes read-and-increment.  durable_2pc: move `amount` from item[0] to
/// item[1].
struct TxnSpec {
  std::array<uint32_t, kHotOps> item{};
  uint8_t n = 0;
  uint8_t write_mask = 0;
  bool cross = false;
  int64_t amount = 0;
};

/// A deterministic stream per (seed, level, round, client).
std::mt19937_64 StreamFor(uint64_t seed, size_t level, int round, int client) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(level), static_cast<uint32_t>(round),
                    static_cast<uint32_t>(client)};
  return std::mt19937_64(seq);
}

/// Zipf(theta) ranks over [0, n) by CDF inversion; rank r is item r.
class Zipf {
 public:
  Zipf(uint32_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t Next(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Item keys, plus (durable_2pc) the items of each shard.
struct Keyspace {
  std::vector<ItemId> keys;
  std::vector<std::vector<uint32_t>> by_shard;
};

Keyspace MakeKeyspace(const Workload& w) {
  Keyspace ks;
  ks.keys.reserve(w.items);
  for (uint32_t i = 0; i < w.items; ++i) ks.keys.push_back("i" + std::to_string(i));
  if (w.kind == Kind::kDurable2pc) {
    // Shard membership comes from the facade's router, so the forced
    // cross-shard share is exact.
    const critique::ShardRouter router(kShards);
    ks.by_shard.resize(kShards);
    for (uint32_t i = 0; i < w.items; ++i) {
      ks.by_shard[static_cast<size_t>(router.ShardOf(ks.keys[i]))].push_back(i);
    }
  }
  return ks;
}

std::vector<TxnSpec> MakeInputs(const Workload& w, const Keyspace& ks,
                                const Zipf* zipf, uint64_t n,
                                std::mt19937_64 rng, int client) {
  std::vector<TxnSpec> out(n);
  auto uniform = [&rng](size_t bound) {
    return static_cast<uint32_t>(
        std::uniform_int_distribution<size_t>(0, bound - 1)(rng));
  };
  for (TxnSpec& t : out) {
    switch (w.kind) {
      case Kind::kDisjoint: {
        const uint32_t slice = w.items / kClients;
        t.n = kDisjointOps;
        for (int i = 0; i < kDisjointOps; ++i) {
          t.item[static_cast<size_t>(i)] =
              static_cast<uint32_t>(client) * slice + uniform(slice);
          t.write_mask |= static_cast<uint8_t>(1u << i);
        }
        break;
      }
      case Kind::kHot: {
        t.n = kHotOps;
        for (int i = 0; i < kHotOps; ++i) {
          t.item[static_cast<size_t>(i)] = zipf->Next(rng);
          if (std::uniform_real_distribution<double>(0, 1)(rng) < kHotWriteShare) {
            t.write_mask |= static_cast<uint8_t>(1u << i);
          }
        }
        break;
      }
      case Kind::kDurable2pc: {
        t.n = 2;
        t.cross = std::uniform_real_distribution<double>(0, 1)(rng) < kCrossShare;
        const uint32_t sa = uniform(kShards);
        uint32_t sb = sa;
        if (t.cross) sb = (sa + 1 + uniform(kShards - 1)) % kShards;
        const auto& from = ks.by_shard[sa];
        const auto& to = ks.by_shard[sb];
        t.item[0] = from[uniform(from.size())];
        do {
          t.item[1] = to[uniform(to.size())];
        } while (t.item[1] == t.item[0]);
        t.amount = 1 + static_cast<int64_t>(uniform(9));
        break;
      }
    }
  }
  return out;
}

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// --- span recording -----------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Clock ticks the hypervisor has taken from this machine's CPUs since
/// boot (the `steal` column of /proc/stat); -1 where it is not reported.
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t field[8] = {};
  in >> cpu;
  for (int64_t& f : field) in >> f;
  return in && cpu == "cpu" ? field[7] : -1;
}

/// Heap bytes this process has allocated and not freed, in MB, over every
/// malloc arena.  Unlike the resident set, this does not count the free
/// memory the client threads' arenas keep after a round: that grows from
/// round to round by chance fragmentation and swamps a round's own size.
double HeapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Appends spans to one client's buffer; a null buffer records nothing, so
/// the untraced run pays one branch per boundary.
struct SpanRecorder {
  std::vector<Span>* spans = nullptr;
  uint64_t trace_id = 0;

  int32_t Open(SpanKind kind, int32_t parent, bool cross = false) {
    if (spans == nullptr) return -1;
    spans->push_back(Span{trace_id, parent, kind, cross, NowNs(), 0});
    return static_cast<int32_t>(spans->size() - 1);
  }
  void Close(int32_t idx) {
    if (spans != nullptr) (*spans)[static_cast<size_t>(idx)].end_ns = NowNs();
  }
  template <typename F>
  auto Leaf(SpanKind kind, int32_t parent, F&& f) {
    if (spans == nullptr) return f();
    const int64_t start = NowNs();
    auto r = f();
    spans->push_back(Span{trace_id, parent, kind, false, start, NowNs()});
    return r;
  }
};

template <class Txn>
Result<int64_t> ReadInt(Txn& txn, const ItemId& key, SpanRecorder& rec,
                        int32_t body) {
  Result<Value> v = rec.Leaf(SpanKind::kRead, body,
                             [&] { return txn.GetScalar(key); });
  if (!v.ok()) return v.status();
  if (!v->is_int()) return Status::Internal("item " + key + " has no value");
  return v->AsInt();
}

template <class Txn>
Status WriteInt(Txn& txn, const ItemId& key, int64_t v, SpanRecorder& rec,
                int32_t body) {
  return rec.Leaf(SpanKind::kWrite, body,
                  [&] { return txn.Put(key, Value(v)); });
}

/// One body attempt; `increments` counts this attempt's writes.
template <class Txn>
Status RunBody(Txn& txn, const TxnSpec& t, const Keyspace& ks, Kind kind,
               SpanRecorder& rec, int32_t body, int64_t& increments) {
  increments = 0;
  if (kind == Kind::kDurable2pc) {
    const ItemId& src = ks.keys[t.item[0]];
    const ItemId& dst = ks.keys[t.item[1]];
    CRITIQUE_ASSIGN_OR_RETURN(int64_t a, ReadInt(txn, src, rec, body));
    CRITIQUE_ASSIGN_OR_RETURN(int64_t b, ReadInt(txn, dst, rec, body));
    CRITIQUE_RETURN_NOT_OK(WriteInt(txn, src, a - t.amount, rec, body));
    return WriteInt(txn, dst, b + t.amount, rec, body);
  }
  for (int i = 0; i < t.n; ++i) {
    const ItemId& key = ks.keys[t.item[static_cast<size_t>(i)]];
    CRITIQUE_ASSIGN_OR_RETURN(int64_t v, ReadInt(txn, key, rec, body));
    if ((t.write_mask >> i) & 1u) {
      CRITIQUE_RETURN_NOT_OK(WriteInt(txn, key, v + 1, rec, body));
      ++increments;
    }
  }
  return Status::OK();
}

// --- closed-loop driver -------------------------------------------------------

struct ClientLog {
  uint64_t attempts = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  int64_t increments = 0;  ///< final-attempt increments of committed calls
  std::vector<double> latency_us;
  std::vector<int64_t> committed_at_ns;  ///< return time of each committed call
  std::vector<Span> spans;
  std::string first_error;
};

struct DriveResult {
  /// From the common start until the first client returns its last call:
  /// the window in which all clients are running.  The rate counts only
  /// that window, so one descheduled client's tail is not charged to the
  /// system as idle time.
  double window_s = 0;
  uint64_t window_committed = 0;
  uint64_t attempts = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  int64_t increments = 0;
  size_t samples = 0;  ///< Execute calls timed
  double p50_us = 0;
  double p90_us = 0;
  /// Share of the CPU time of the machine's CPUs that the hypervisor took
  /// while the clients ran; rounds with the most are set aside.
  double steal_share = 0;
  std::vector<std::vector<Span>> spans;  ///< one buffer per client
  std::string first_error;
};

/// Runs every input stream to completion on `threads` clients (client c
/// takes streams c, c + threads, ...), each call timed from before
/// `Execute` to its return.
template <class Db, class Txn>
DriveResult Drive(Db& db, const std::vector<std::vector<TxnSpec>>& streams,
                  const Keyspace& ks, Kind kind, int threads, bool traced) {
  std::vector<ClientLog> logs(static_cast<size_t>(threads));
  std::vector<int64_t> finish(static_cast<size_t>(threads), 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int c = 0; c < threads; ++c) {
    workers.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      SpanRecorder rec;
      if (traced) rec.spans = &log.spans;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t seq = 0;
      for (size_t s = static_cast<size_t>(c); s < streams.size();
           s += static_cast<size_t>(threads)) {
        for (const TxnSpec& t : streams[s]) {
          rec.trace_id = (static_cast<uint64_t>(c) << 40) | seq++;
          int64_t incs = 0;
          int runs = 0;
          const int64_t t0 = NowNs();
          const int32_t call = rec.Open(SpanKind::kExecute, -1, t.cross);
          Status st = db.Execute([&](Txn& txn) {
            ++runs;
            const int32_t body = rec.Open(SpanKind::kBody, call);
            Status r = RunBody(txn, t, ks, kind, rec, body, incs);
            rec.Close(body);
            return r;
          });
          rec.Close(call);
          const int64_t t1 = NowNs();
          log.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          ++log.attempts;
          if (st.ok()) {
            ++log.committed;
            log.committed_at_ns.push_back(t1);
            log.increments += incs;
          } else {
            ++log.failed;
            if (log.first_error.empty()) {
              log.first_error = Fmt("%s (after %d body runs)", st.ToString().c_str(), runs);
            }
          }
        }
      }
      finish[static_cast<size_t>(c)] = NowNs();
    });
  }
  const int64_t steal_before = StealTicks();
  const int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const int64_t end = NowNs();
  const int64_t steal_after = StealTicks();
  DriveResult r;
  if (steal_before >= 0 && steal_after >= 0 && end > start) {
    const double cpu_ticks = static_cast<double>(end - start) / 1e9 *
                             static_cast<double>(sysconf(_SC_CLK_TCK)) *
                             static_cast<double>(std::thread::hardware_concurrency());
    r.steal_share = static_cast<double>(steal_after - steal_before) / cpu_ticks;
  }
  const int64_t window_end = *std::min_element(finish.begin(), finish.end());
  r.window_s = static_cast<double>(window_end - start) / 1e9;
  std::vector<double> latency_us;
  for (ClientLog& log : logs) {
    r.window_committed += static_cast<uint64_t>(
        std::upper_bound(log.committed_at_ns.begin(), log.committed_at_ns.end(), window_end) -
        log.committed_at_ns.begin());
    r.attempts += log.attempts;
    r.committed += log.committed;
    r.failed += log.failed;
    r.increments += log.increments;
    latency_us.insert(latency_us.end(), log.latency_us.begin(),
                      log.latency_us.end());
    r.spans.push_back(std::move(log.spans));
    if (r.first_error.empty()) r.first_error = log.first_error;
  }
  r.samples = latency_us.size();
  r.p50_us = Percentile(latency_us, 50);
  r.p90_us = Percentile(std::move(latency_us), 90);
  return r;
}

// --- per-layer readings ---------------------------------------------------------

using Layers = std::map<std::string, double>;

/// Begin / read / write / commit / retry attribution from a traced round.
void AttributeSpans(const std::vector<std::vector<Span>>& buffers, Kind kind,
                    Layers& out) {
  double calls = 0, begin = 0, commit = 0, retry = 0;
  double reads = 0, read_ns = 0, writes = 0, write_ns = 0;
  double cross = 0, cross_commit = 0, local = 0, local_commit = 0;
  for (const std::vector<Span>& spans : buffers) {
    const std::vector<int64_t> self = SelfTimesNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.kind == SpanKind::kRead) {
        ++reads;
        read_ns += static_cast<double>(self[i]);
      } else if (s.kind == SpanKind::kWrite) {
        ++writes;
        write_ns += static_cast<double>(self[i]);
      } else if (s.kind == SpanKind::kExecute) {
        // A call's spans are contiguous in its client's buffer.
        std::vector<Span> bodies;
        for (size_t j = i + 1; j < spans.size() && spans[j].kind != SpanKind::kExecute; ++j) {
          if (spans[j].kind == SpanKind::kBody) bodies.push_back(spans[j]);
        }
        const GapBreakdown g = AttributeGaps(s, std::move(bodies));
        ++calls;
        begin += static_cast<double>(g.begin_ns);
        commit += static_cast<double>(g.commit_ns);
        retry += static_cast<double>(g.retry_ns);
        (s.cross_shard ? cross : local) += 1;
        (s.cross_shard ? cross_commit : local_commit) += static_cast<double>(g.commit_ns);
      }
    }
  }
  auto mean_us = [](double ns, double n) { return n > 0 ? ns / n / 1e3 : 0.0; };
  out["db.begin_us"] = mean_us(begin, calls);
  out["db.read_us"] = mean_us(read_ns, reads);
  out["db.write_us"] = mean_us(write_ns, writes);
  out["db.commit_us"] = mean_us(commit, calls);
  out["db.retry_us"] = mean_us(retry, calls);
  if (kind == Kind::kDurable2pc) {
    out["shard.cross_commit_us"] = mean_us(cross_commit, cross);
    out["shard.local_commit_us"] = mean_us(local_commit, local);
  }
}

/// `BucketPercentile` of a registry histogram.
double HistPercentile(const HistogramSnapshot& h, double p) {
  return BucketPercentile(std::vector<uint64_t>(h.buckets.begin(), h.buckets.end()), p);
}

void AddHistogram(HistogramSnapshot& into, const HistogramSnapshot& h) {
  into.count += h.count;
  into.sum += h.sum;
  into.max = std::max(into.max, h.max);
  for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) into.buckets[b] += h.buckets[b];
}

/// Registry samples of several databases, merged by name: gauges and
/// counters add, histograms add bucket-wise.
std::map<std::string, MetricSample> MergedRegistry(
    const std::vector<const Database*>& dbs) {
  std::map<std::string, MetricSample> merged;
  for (const Database* db : dbs) {
    for (MetricSample& s : db->metrics().Collect()) {
      auto [it, fresh] = merged.emplace(s.name, s);
      if (fresh) continue;
      it->second.value += s.value;
      AddHistogram(it->second.histogram, s.histogram);
    }
  }
  return merged;
}

/// Engine, lock and storage readings shared by both facades.
void ReadEngineLayers(const std::vector<const Database*>& dbs,
                      uint64_t committed, Layers& out) {
  const auto reg = MergedRegistry(dbs);
  auto hist = [&reg](const std::string& name) {
    auto it = reg.find(name);
    return it == reg.end() ? HistogramSnapshot{} : it->second.histogram;
  };
  auto gauge = [&reg](const std::string& name) {
    auto it = reg.find(name);
    return it == reg.end() ? 0.0 : static_cast<double>(it->second.value);
  };
  double commits = 0, aborts = 0, versions = 0, max_chain = 0;
  for (const Database* db : dbs) {
    const critique::EngineStats st = db->StatsSnapshot();
    commits += static_cast<double>(st.commits);
    aborts += static_cast<double>(st.total_aborts());
    versions += static_cast<double>(db->VersionCount());
    max_chain = std::max(max_chain,
                         static_cast<double>(db->engine().MaxVersionChainLength()));
  }
  const double per_txn = committed > 0 ? 1.0 / static_cast<double>(committed) : 0.0;
  out["engine.abort_ratio"] = commits + aborts > 0 ? aborts / (commits + aborts) : 0.0;
  out["engine.validate_us_p50"] = HistPercentile(hist("engine.pipeline.validate_us"), 50);
  out["engine.publish_us_p50"] = HistPercentile(hist("engine.pipeline.publish_us"), 50);
  const HistogramSnapshot waits = hist("engine.lock.wait_us");
  out["lock.waits_per_txn"] = static_cast<double>(waits.count) * per_txn;
  out["lock.wait_us_p50"] = HistPercentile(waits, 50);
  out["lock.wait_us_p90"] = HistPercentile(waits, 90);
  out["lock.deadlocks"] = gauge("engine.lock.deadlocks");
  out["lock.timeouts"] = gauge("engine.lock.timeouts");
  out["storage.version_count"] = versions;
  out["storage.max_chain"] = max_chain;
}

// --- one round ------------------------------------------------------------------

/// A round's outcome.  `checks` collects every failed output check.
struct Round {
  double setup_s = 0;
  double recover_s = 0;
  double heap_mb = 0;  ///< heap in use at the round's fullest point
  DriveResult drive;
  Layers layers;
  std::vector<std::string> checks;

  double rate() const {
    return drive.window_s > 0 ? static_cast<double>(drive.window_committed) / drive.window_s
                              : 0;
  }
};

struct RoundPlan {
  const Workload* w;
  const Keyspace* ks;
  size_t level;
  int threads;
  bool traced;
  std::vector<std::vector<TxnSpec>> streams;
  std::string wal_dir;  ///< durable_2pc only
};

/// The items the output checks read: every item a round's inputs touch,
/// plus every 64th item as a sample of the untouched ones.  Reading all
/// 65,536 items is not affordable: an SSI read costs time in proportion to
/// the transactions committed so far under kRetainAll.
struct Probe {
  std::vector<uint32_t> items;
  std::vector<bool> touched;  ///< parallel to `items`
};

Probe MakeProbe(const RoundPlan& p) {
  std::vector<bool> touched(p.ks->keys.size(), false);
  for (const auto& stream : p.streams) {
    for (const TxnSpec& t : stream) {
      for (int i = 0; i < t.n; ++i) touched[t.item[static_cast<size_t>(i)]] = true;
    }
  }
  Probe probe;
  for (uint32_t i = 0; i < touched.size(); ++i) {
    if (touched[i] || i % 64 == 0) {
      probe.items.push_back(i);
      probe.touched.push_back(touched[i]);
    }
  }
  return probe;
}

/// Reads the probed items in one read-only transaction, once the clients
/// have stopped.  A Serializable-SI database is read at plain Snapshot
/// Isolation: with no transaction running the two see the same state, and
/// the check's read-only transaction needs no SSI certification.
template <class Txn, class Db>
Result<std::vector<int64_t>> ReadProbe(Db& db, const Keyspace& ks,
                                       const Probe& probe, IsolationLevel level) {
  std::vector<int64_t> values(probe.items.size());
  SpanRecorder off;
  critique::BeginOptions opts;
  if (level == IsolationLevel::kSerializableSI) {
    opts.level = IsolationLevel::kSnapshotIsolation;
  }
  Status st = db.Execute(opts, [&](Txn& txn) {
    for (size_t i = 0; i < probe.items.size(); ++i) {
      CRITIQUE_ASSIGN_OR_RETURN(values[i],
                                ReadInt(txn, ks.keys[probe.items[i]], off, -1));
    }
    return Status::OK();
  });
  if (!st.ok()) return st;
  return values;
}

/// Checks the probed final state: untouched items still hold the initial
/// balance, and the probed total (which covers every touched item) moved by
/// exactly `delta`.  `enforce` false only reports a wrong total: Oracle
/// Read Consistency admits lost updates (P4).
void CheckFinalState(const Probe& probe, const std::vector<int64_t>& values,
                     int64_t delta, bool enforce, const std::string& what,
                     std::vector<std::string>& checks) {
  int64_t total = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    total += values[i];
    if (!probe.touched[i] && values[i] != kInitialBalance) {
      checks.push_back(Fmt("%s: untouched item %u changed to %" PRId64, what.c_str(),
                           probe.items[i], values[i]));
    }
  }
  const int64_t expected =
      kInitialBalance * static_cast<int64_t>(values.size()) + delta;
  if (total == expected) return;
  const std::string msg = Fmt("%s: total %" PRId64 ", expected %" PRId64,
                              what.c_str(), total, expected);
  if (enforce) {
    checks.push_back(msg);
  } else {
    std::fprintf(stderr, "note: %s (lost updates allowed)\n", msg.c_str());
  }
}

/// Item-by-item comparison of the probed state before and after a restart.
void CheckRestart(const Probe& probe, const std::vector<int64_t>& before,
                  const Result<std::vector<int64_t>>& after,
                  std::vector<std::string>& checks) {
  if (!after.ok()) {
    checks.push_back("read after restart: " + after.status().ToString());
    return;
  }
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i] != (*after)[i]) {
      checks.push_back(Fmt("item %u: %" PRId64 " before restart, %" PRId64 " after",
                           probe.items[i], before[i], (*after)[i]));
      return;
    }
  }
}

Round RunSingleSite(const RoundPlan& p) {
  const Level& lvl = kLevels[p.level];
  Round r;
  DbOptions o(lvl.iso);
  o.mode = ConcurrencyMode::kBlocking;
  o.retry_policy = ClientRetryPolicy();

  int64_t t0 = NowNs();
  Database db(o);
  for (const ItemId& k : p.ks->keys) {
    Status st = db.Load(k, Value(kInitialBalance));
    if (!st.ok()) r.checks.push_back("load: " + st.ToString());
  }
  r.setup_s = static_cast<double>(NowNs() - t0) / 1e9;

  r.drive = Drive<Database, Transaction>(db, p.streams, *p.ks, p.w->kind,
                                         p.threads, p.traced);
  const DriveResult& d = r.drive;
  const critique::EngineStats st = db.StatsSnapshot();
  const uint64_t engine_txns = st.commits + st.total_aborts();
  const uint64_t client_txns = d.attempts + db.execute_retries();
  if (engine_txns != client_txns) {
    r.checks.push_back(Fmt("engine commits+aborts %" PRIu64
                           " != attempts+retries %" PRIu64,
                           engine_txns, client_txns));
  }
  if (p.traced) {
    AttributeSpans(d.spans, p.w->kind, r.layers);
    ReadEngineLayers({&db}, d.committed, r.layers);
    r.layers["db.retries_per_txn"] =
        d.committed > 0 ? static_cast<double>(db.execute_retries()) / d.committed : 0;
  }

  const Probe probe = MakeProbe(p);
  Result<std::vector<int64_t>> final_state = ReadProbe<Transaction>(db, *p.ks, probe, lvl.iso);
  if (!final_state.ok()) {
    r.checks.push_back("final read: " + final_state.status().ToString());
    return r;
  }
  const int64_t delta = p.w->kind == Kind::kDisjoint
                            ? kDisjointOps * static_cast<int64_t>(d.committed)
                            : d.increments;
  const bool enforce =
      p.w->kind == Kind::kDisjoint || lvl.iso != IsolationLevel::kOracleReadConsistency;
  CheckFinalState(probe, *final_state, delta, enforce,
                  std::string(p.w->name) + " " + lvl.name, r.checks);

  // An in-memory database restarts by loading its last state into a fresh
  // facade; that is its recovery.
  std::vector<int64_t> dump(p.ks->keys.size(), kInitialBalance);
  for (size_t i = 0; i < probe.items.size(); ++i) dump[probe.items[i]] = (*final_state)[i];
  t0 = NowNs();
  Database restarted(o);
  for (size_t i = 0; i < p.ks->keys.size(); ++i) {
    Status ls = restarted.Load(p.ks->keys[i], Value(dump[i]));
    if (!ls.ok()) r.checks.push_back("restart load: " + ls.ToString());
  }
  r.recover_s = static_cast<double>(NowNs() - t0) / 1e9;
  CheckRestart(probe, *final_state, ReadProbe<Transaction>(restarted, *p.ks, probe, lvl.iso),
               r.checks);
  r.heap_mb = HeapMb();  // both facades are alive here
  return r;
}

ShardedDbOptions DurableOptions(IsolationLevel iso, const std::string& wal_dir) {
  ShardedDbOptions o(kShards, iso);
  o.shard_options.mode = ConcurrencyMode::kBlocking;
  o.shard_options.group_commit = true;
  o.shard_options.fsync_mode = FsyncMode::kSimulated;
  o.shard_options.fsync_latency = kFsyncLatency;
  o.wal_dir = wal_dir;
  o.retry_policy = ClientRetryPolicy();
  return o;
}

std::vector<const Database*> Shards(const ShardedDatabase& sdb) {
  std::vector<const Database*> out;
  for (int i = 0; i < sdb.num_shards(); ++i) out.push_back(&sdb.shard(i));
  return out;
}

/// WAL, coordinator and shard readings of a traced durable_2pc round.
void ReadDurableLayers(ShardedDatabase& sdb, uint64_t committed, Layers& out) {
  const double per_txn = committed > 0 ? 1.0 / static_cast<double>(committed) : 0.0;
  out["db.retries_per_txn"] = static_cast<double>(sdb.execute_retries()) * per_txn;
  std::vector<critique::CommitLog*> logs;
  for (int i = 0; i < sdb.num_shards(); ++i) logs.push_back(sdb.shard(i).wal());
  logs.push_back(sdb.coordinator_log());
  double syncs = 0, bytes = 0;
  HistogramSnapshot fsync, batch;
  for (critique::CommitLog* log : logs) {
    syncs += static_cast<double>(log->stats().syncs);
    AddHistogram(fsync, log->fsync_histogram().Snapshot());
    AddHistogram(batch, log->batch_histogram().Snapshot());
    std::error_code ec;
    bytes += static_cast<double>(std::filesystem::file_size(log->path(), ec));
  }
  out["wal.syncs_per_commit"] = syncs * per_txn;
  out["wal.batch_mean"] = batch.Mean();
  out["wal.fsync_us_p50"] = HistPercentile(fsync, 50);
  out["wal.bytes_per_txn"] = bytes * per_txn;
  const critique::TxnCoordinator& coord = sdb.coordinator();
  out["shard.prepare_us_p50"] = HistPercentile(coord.prepare_histogram().Snapshot(), 50);
  out["shard.decision_us_p50"] = HistPercentile(coord.decision_histogram().Snapshot(), 50);
  out["shard.cross_ratio"] = static_cast<double>(coord.stats().committed) * per_txn;
  out["shard.decision_aborts"] = static_cast<double>(coord.stats().decision_aborts);
}

Round RunDurable(const RoundPlan& p) {
  const Level& lvl = kLevels[p.level];
  Round r;
  std::error_code ec;
  std::filesystem::remove_all(p.wal_dir, ec);
  std::filesystem::create_directories(p.wal_dir, ec);
  const ShardedDbOptions o = DurableOptions(lvl.iso, p.wal_dir);

  int64_t t0 = NowNs();
  auto sdb = std::make_unique<ShardedDatabase>(o);
  for (const ItemId& k : p.ks->keys) {
    Status st = sdb->Load(k, Value(kInitialBalance));
    if (!st.ok()) r.checks.push_back("load: " + st.ToString());
  }
  r.setup_s = static_cast<double>(NowNs() - t0) / 1e9;

  r.drive = Drive<ShardedDatabase, ShardedTransaction>(*sdb, p.streams, *p.ks,
                                                       p.w->kind, p.threads, p.traced);
  const DriveResult& d = r.drive;
  r.heap_mb = HeapMb();
  if (p.traced) {
    AttributeSpans(d.spans, p.w->kind, r.layers);
    ReadEngineLayers(Shards(*sdb), d.committed, r.layers);
    ReadDurableLayers(*sdb, d.committed, r.layers);
  }

  const Probe probe = MakeProbe(p);
  Result<std::vector<int64_t>> final_state =
      ReadProbe<ShardedTransaction>(*sdb, *p.ks, probe, lvl.iso);
  if (!final_state.ok()) {
    r.checks.push_back("final read: " + final_state.status().ToString());
    return r;
  }
  CheckFinalState(probe, *final_state, 0,
                  lvl.iso != IsolationLevel::kOracleReadConsistency,
                  std::string("durable_2pc ") + lvl.name + " transfer sum", r.checks);

  // Drop the facade (a clean shutdown flushes every log), then restart it
  // from the logs it wrote.
  sdb.reset();
  std::vector<Span> recover_span;
  SpanRecorder rec;
  if (p.traced) rec.spans = &recover_span;
  t0 = NowNs();
  const int32_t span = rec.Open(SpanKind::kRecover, -1);
  auto recovered = ShardedDatabase::Recover(o);
  if (recovered.ok()) (void)(*recovered)->RecoverInDoubt();
  rec.Close(span);
  r.recover_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (p.traced) r.drive.spans.push_back(std::move(recover_span));
  if (!recovered.ok()) {
    r.checks.push_back("recover: " + recovered.status().ToString());
    return r;
  }
  ShardedDatabase& rdb = **recovered;
  r.heap_mb = std::max(r.heap_mb, HeapMb());
  for (int i = 0; i < kShards; ++i) {
    const size_t in_doubt = rdb.shard(i).engine().InDoubtTransactions().size();
    if (in_doubt != 0) {
      r.checks.push_back(Fmt("shard %d: %zu in doubt after recovery", i, in_doubt));
    }
  }
  CheckRestart(probe, *final_state, ReadProbe<ShardedTransaction>(rdb, *p.ks, probe, lvl.iso),
               r.checks);
  return r;
}

// --- the run ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  std::string spans_dir;
  std::string wal_dir = "txnbench-wal";
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      err = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') err = "bad --seed " + v;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) err = "bad --seconds " + v;
    } else if (flag == "--trace") {
      if (v == "0" || v == "1") a.trace = v[0] - '0';
      else err = "bad --trace " + v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--spans-dir") {
      a.spans_dir = v;
    } else if (flag == "--wal-dir") {
      a.wal_dir = v;
    } else {
      err = "unknown flag " + flag;
    }
    if (!err.empty()) return false;
  }
  if (a.list_metrics) return true;
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0) {
    err = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Fingerprint(const Args& a, int cpus) {
#if defined(__clang__)
  const std::string compiler = std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("GCC ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const DbOptions defaults;
  const std::string sanitizer = *TXNBENCH_SANITIZER ? TXNBENCH_SANITIZER : "none";
  return Fmt("nproc=%d cpu=\"%s\" compiler=\"%s\" build=%s sanitizer=%s "
             "commit=%s workload=%s seed=%" PRIu64 " clients=%d trace=%d "
             "gc=%s store=%s online_check=%s",
             cpus, CpuModel().c_str(), compiler.c_str(), TXNBENCH_BUILD_TYPE,
             sanitizer.c_str(), a.commit.c_str(), a.workload.c_str(), a.seed,
             kClients, a.trace,
             defaults.version_gc == critique::VersionGcMode::kRetainAll ? "retain_all"
                                                                          : "watermark",
             defaults.storage_backend == critique::StorageBackend::kMap ? "map" : "hash",
             defaults.online_check ? "on" : "off");
}

/// Median / quartiles of one quantity over rounds, for the human report.
struct Spread {
  double median = 0, lo = 0, hi = 0;
};

Spread SpreadOf(const std::vector<double>& v) {
  return {Median(v), Percentile(v, 25), Percentile(v, 75)};
}

/// Every round of one level, by kind of round.
struct LevelRounds {
  std::vector<Round> untraced;   ///< 4 clients, the end-to-end numbers
  std::vector<Round> traced;     ///< 4 clients, spans on
  std::vector<Round> single;     ///< single-site only: 1 client, untraced
  std::vector<std::vector<Span>> last_spans;
};

/// The rounds every reported median is taken over: those the hypervisor
/// took (almost) no CPU time from, see `LeastStolenRounds`.
std::vector<const Round*> Kept(const std::vector<Round>& rounds) {
  std::vector<double> steal;
  for (const Round& r : rounds) steal.push_back(r.drive.steal_share);
  std::vector<const Round*> out;
  for (size_t i : LeastStolenRounds(steal)) out.push_back(&rounds[i]);
  return out;
}

std::vector<double> Collect(const std::vector<Round>& rounds,
                            const std::function<double(const Round&)>& f) {
  std::vector<double> out;
  for (const Round* r : Kept(rounds)) out.push_back(f(*r));
  return out;
}

void WriteSpans(const std::string& dir, const std::string& fingerprint,
                const Workload& w, const Level& l,
                const std::vector<std::vector<Span>>& buffers) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + w.name + "-" + l.name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "# %s level=%s\nclient,trace_id,index,parent,kind,cross,start_ns,end_ns\n",
               fingerprint.c_str(), l.name);
  for (size_t c = 0; c < buffers.size(); ++c) {
    for (size_t i = 0; i < buffers[c].size(); ++i) {
      const Span& s = buffers[c][i];
      std::fprintf(f, "%zu,%" PRIu64 ",%zu,%d,%s,%d,%" PRId64 ",%" PRId64 "\n", c,
                   s.trace_id, i, s.parent, SpanKindName(s.kind), s.cross_shard ? 1 : 0,
                   s.start_ns, s.end_ns);
    }
  }
  std::fclose(f);
}

void PrintMetric(std::string& json, const std::string& name, double value,
                 const char* unit) {
  if (!IsValidMetricName(name)) {
    std::fprintf(stderr, "txnbench: invalid metric name '%s'\n", name.c_str());
    std::abort();
  }
  if (!std::isfinite(value)) value = 0;
  if (!json.empty()) json += ", ";
  json += Fmt("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name.c_str(), value, unit);
}

int Run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const int cpus = AvailableCpus();
  if (kClients > cpus) {
    std::fprintf(stderr, "refusing to start %d client threads on %d CPUs\n", kClients, cpus);
    return 2;
  }
  const std::string fingerprint = Fingerprint(a, cpus);
  std::printf("# txnbench %s\n", fingerprint.c_str());
  std::fflush(stdout);

  const Keyspace ks = MakeKeyspace(*w);
  std::unique_ptr<Zipf> zipf;
  if (w->kind == Kind::kHot) zipf = std::make_unique<Zipf>(w->items, kHotTheta);

  std::array<LevelRounds, kNumLevels> levels;
  std::vector<double> setup_per_cycle, recover_per_cycle;
  std::vector<std::string> failures;
  uint64_t attempted = 0, failed = 0, committed = 0;
  std::string first_error;

  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(a.seconds * 1e9);
  for (int cycle = 0;; ++cycle) {
    const int64_t cycle_start = NowNs();
    double setup = 0, recover = 0;
    for (size_t li = 0; li < kNumLevels; ++li) {
      for (int rep = 0; rep < w->rounds_per_cycle[li]; ++rep) {
        const int round_no = cycle * w->rounds_per_cycle[li] + rep;
        RoundPlan plan{w, &ks, li, kClients, false, {}, a.wal_dir + "/" + kLevels[li].name};
        for (int c = 0; c < kClients; ++c) {
          plan.streams.push_back(MakeInputs(*w, ks, zipf.get(), w->txns_per_client[li],
                                            StreamFor(a.seed, li, round_no, c), c));
        }
        // The same inputs run untraced, traced, and (single-site) on one client.
        std::vector<std::pair<int, bool>> variants = {{kClients, false}};
        if (a.trace == 1) {
          variants.push_back({kClients, true});
          if (w->kind != Kind::kDurable2pc) variants.push_back({1, false});
        }
        for (auto [threads, traced] : variants) {
          plan.threads = threads;
          plan.traced = traced;
          const int64_t round_start = NowNs();
          Round r = w->kind == Kind::kDurable2pc ? RunDurable(plan) : RunSingleSite(plan);
          std::fprintf(stderr, "cycle %d %-7s %d client%s%s: %" PRIu64 " committed, %.0f/s "
                       "p50 %.1f us p90 %.1f us steal %.1f%% heap %.1f MB (round %.3f s)\n",
                       cycle, kLevels[li].name, threads, threads == 1 ? "" : "s",
                       traced ? " traced" : "", r.drive.committed, r.rate(), r.drive.p50_us,
                       r.drive.p90_us, 100 * r.drive.steal_share, r.heap_mb,
                       static_cast<double>(NowNs() - round_start) / 1e9);
          attempted += r.drive.attempts;
          failed += r.drive.failed;
          committed += r.drive.committed;
          if (first_error.empty()) first_error = r.drive.first_error;
          for (const std::string& m : r.checks) {
            failures.push_back(Fmt("cycle %d %s: ", cycle, kLevels[li].name) + m);
          }
          LevelRounds& lr = levels[li];
          if (traced) lr.last_spans = std::move(r.drive.spans);
          r.drive.spans.clear();
          if (threads == 1) {
            lr.single.push_back(std::move(r));
          } else if (traced) {
            lr.traced.push_back(std::move(r));
          } else {
            setup += r.setup_s;
            recover += r.recover_s;
            lr.untraced.push_back(std::move(r));
          }
        }
      }
    }
    setup_per_cycle.push_back(setup);
    recover_per_cycle.push_back(recover);
    const int64_t now = NowNs();
    if (now + (now - cycle_start) > deadline) break;
  }
  std::error_code ec;
  std::filesystem::remove_all(a.wal_dir, ec);

  // Human-readable report, then the one-line JSON result.
  std::printf("# %zu cycles in %.2f s; setup_s/cycle median %.4f, recover_s/cycle median %.4f\n",
              setup_per_cycle.size(), static_cast<double>(NowNs() - start) / 1e9,
              Median(setup_per_cycle), Median(recover_per_cycle));
  std::string json;
  double heap_mb = 0;
  for (size_t li = 0; li < kNumLevels; ++li) {
    const Level& l = kLevels[li];
    const LevelRounds& lr = levels[li];
    const Spread rate = SpreadOf(Collect(lr.untraced, [](const Round& r) { return r.rate(); }));
    const Spread p50 = SpreadOf(Collect(lr.untraced, [](const Round& r) { return r.drive.p50_us; }));
    const Spread p90 = SpreadOf(Collect(lr.untraced, [](const Round& r) { return r.drive.p90_us; }));
    const size_t n = lr.untraced.empty() ? 0 : lr.untraced.front().drive.samples;
    heap_mb = std::max(
        heap_mb, Median(Collect(lr.untraced, [](const Round& r) { return r.heap_mb; })));
    std::printf("%-8s %zu of %zu rounds x %zu calls (highest supported percentile p%g) "
                "txn/s %.0f [%.0f..%.0f]  p50 %.1f us [%.1f..%.1f]  p90 %.1f us [%.1f..%.1f]\n",
                l.name, Kept(lr.untraced).size(), lr.untraced.size(), n,
                HighestSupportedPercentile(n), rate.median, rate.lo, rate.hi, p50.median,
                p50.lo, p50.hi, p90.median, p90.lo, p90.hi);
    if (a.trace == 0) {
      const std::string prefix = std::string(l.name) + ".";
      PrintMetric(json, prefix + "txn_per_s", rate.median, "1/s");
      PrintMetric(json, prefix + "p50_us", p50.median, "us");
      PrintMetric(json, prefix + "p90_us", p90.median, "us");
      continue;
    }
    Layers med;
    for (const MetricDef& m : kLevelLayer) {
      med[m.name] = Median(Collect(lr.traced, [&m](const Round& r) {
        auto it = r.layers.find(m.name);
        return it == r.layers.end() ? 0.0 : it->second;
      }));
    }
    const double traced_rate = Median(Collect(lr.traced, [](const Round& r) { return r.rate(); }));
    med["trace.overhead"] = rate.median > 0 ? traced_rate / rate.median : 0;
    if (!lr.single.empty()) {
      const double one = Median(Collect(lr.single, [](const Round& r) { return r.rate(); }));
      med["db.t4_over_t1"] = one > 0 ? rate.median / one : 0;
    }
    for (const MetricDef& m : kLevelLayer) {
      std::printf("  %s.%-24s %12.3f %s\n", l.name, m.name, med[m.name], m.unit);
      PrintMetric(json, std::string(l.name) + "." + m.name, med[m.name], m.unit);
    }
    if (!a.spans_dir.empty()) WriteSpans(a.spans_dir, fingerprint, *w, l, lr.last_spans);
  }
  const double commit_frac =
      attempted > 0 ? static_cast<double>(committed) / static_cast<double>(attempted) : 0;
  std::printf("# attempted %" PRIu64 " committed %" PRIu64 " failed %" PRIu64 "%s%s\n",
              attempted, committed, failed, first_error.empty() ? "" : "; first failure: ",
              first_error.c_str());
  if (a.trace == 0) {
    PrintMetric(json, "commit_frac", commit_frac, "ratio");
    PrintMetric(json, "setup_s", Median(setup_per_cycle), "s");
    PrintMetric(json, "heap_mb", heap_mb, "MB");
    PrintMetric(json, "recover_s", Median(recover_per_cycle), "s");
  }
  for (const std::string& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              failures.empty() ? "true" : "false", attempted, failed, json.c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace txnbench

int main(int argc, char** argv) {
  txnbench::Args args;
  std::string err;
  if (!txnbench::ParseArgs(argc, argv, args, err)) {
    std::fprintf(stderr, "txnbench: %s\n", err.c_str());
    return 2;
  }
  if (args.list_metrics) {
    txnbench::ListMetrics();
    return 0;
  }
  return txnbench::Run(args);
}
