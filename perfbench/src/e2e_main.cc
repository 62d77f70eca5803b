// End-to-end benchmark program: builds the store, runs one workload through
// the public façade (Warehouse::ExecuteSql / Warehouse::Serve), checks
// the answers, and prints the metrics as one JSON line. With --trace 1 it
// instead feeds the same inputs through the layers' public functions one
// call at a time, records a span around each call, and prints the
// per-layer metrics. See README.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/mdw.h"
#include "harness.h"
#include "trace.h"

namespace pb = perfbench;

namespace {

struct Options {
  pb::Workload workload = pb::Workload::kSqlCovered;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for file-backed stores; each store gets a fresh,
  /// empty subdirectory that is removed when it is no longer needed.
  std::string work_dir = ".";
  std::string spans_out;
  std::string commit = "unknown";
};

/// Store builds per run; the set-up metric is their median.
constexpr int kSetups = 5;

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      const auto w = pb::ParseWorkload(value);
      if (!w.has_value()) return false;
      opt->workload = *w;
    } else if (key == "--seed") {
      opt->seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt->seconds = std::stod(value);
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--work-dir") {
      opt->work_dir = value;
    } else if (key == "--spans-out") {
      opt->spans_out = value;
    } else if (key == "--commit") {
      opt->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt->seconds > 0;
}

double MicrosSince(std::chrono::steady_clock::time_point t0,
                   std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// The JSON metrics object, in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + entries_[i].unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Builds the workload's warehouse kSetups times and keeps the last one;
/// the median construction time is the set-up metric. File-backed stores
/// each get a fresh, empty directory so no run reuses segments.
class StoreBuilder {
 public:
  explicit StoreBuilder(const Options& opt) : opt_(opt) {}
  ~StoreBuilder() { RemoveDir(); }

  StoreBuilder(const StoreBuilder&) = delete;
  StoreBuilder& operator=(const StoreBuilder&) = delete;

  const mdw::Warehouse& Build() {
    for (int i = 0; i < kSetups; ++i) {
      wh_.reset();
      RemoveDir();
      std::string dir;
      if (opt_.workload == pb::Workload::kSqlPaged) {
        dir_ = opt_.work_dir + "/store-" + std::to_string(i);
        dir = dir_;
      }
      const double t0 = pb::NowSeconds();
      wh_.emplace(pb::BenchConfig(opt_.workload, dir));
      times_.push_back(pb::NowSeconds() - t0);
    }
    return *wh_;
  }

  const std::vector<double>& times() const { return times_; }

 private:
  void RemoveDir() {
    if (dir_.empty()) return;
    wh_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    dir_.clear();
  }

  const Options& opt_;
  std::optional<mdw::Warehouse> wh_;
  std::string dir_;
  std::vector<double> times_;
};

// ---------------------------------------------------------------- SQL

/// Per-class facts of one pass.
struct ClassTally {
  std::int64_t count = 0;
  std::int64_t rows_scanned = 0;
  std::int64_t fragments = 0;
};

/// Outcome counters of one pass through the sequence.
struct PassFacts {
  pb::Digest digest;
  std::int64_t failed = 0;
  std::int64_t rows_scanned = 0;
  std::int64_t pages_read = 0;
  std::int64_t io_retries = 0;
  std::int64_t checksum_failures = 0;
  std::vector<ClassTally> classes;
};

void Tally(const mdw::QueryOutcome& o, int cls, PassFacts* facts) {
  facts->rows_scanned += o.rows_scanned;
  facts->pages_read += o.pages_read;
  facts->io_retries += o.io_retries;
  facts->checksum_failures += o.checksum_failures;
  ClassTally& t = facts->classes[static_cast<std::size_t>(cls)];
  ++t.count;
  t.rows_scanned += o.rows_scanned;
  t.fragments += o.fragments_processed;
}

/// One untraced pass: ExecuteSql on every statement of the sequence, each
/// call timed on its own. Returns the pass's wall time in seconds.
double RunSqlPass(const mdw::Warehouse& wh, const pb::SqlWorkload& w,
                  std::vector<double>* latency_us, PassFacts* facts) {
  facts->classes.assign(w.class_names.size(), {});
  const double t0 = pb::NowSeconds();
  for (std::size_t i = 0; i < w.sequence.size(); ++i) {
    const std::uint32_t s = w.sequence[i];
    const auto a = std::chrono::steady_clock::now();
    const mdw::StatusOr<mdw::QueryOutcome> r = wh.ExecuteSql(w.statements[s]);
    (*latency_us)[i] = MicrosSince(a, std::chrono::steady_clock::now());
    if (!r.ok() || !r->status.ok() || !r->table.has_value()) {
      ++facts->failed;
      facts->digest.AddFailure();
      continue;
    }
    facts->digest.Add(*r->table);
    Tally(*r, w.statement_class[s], facts);
  }
  return pb::NowSeconds() - t0;
}

/// Per-layer totals of one traced pass.
struct LayerTotals {
  double request_us = 0, parse_us = 0, plan_us = 0, exec_us = 0,
         exec_cpu_us = 0, table_us = 0, route_us = 0;
  std::int64_t routed = 0, fragments = 0, scan_runs = 0,
               summary_runs = 0, rows_scanned = 0, rows_summarized = 0,
               hit_rows = 0, fragments_summarized = 0, groups = 0,
               bitmap_slices = 0, residual_fragments = 0, skewed = 0;
  double skew_sum = 0;
  mdw::PlanCache::Stats cache;  ///< deltas over the pass
  std::uint64_t plans_derived = 0;
  mdw::storage::PoolStats pool;  ///< deltas over the pass
};

mdw::storage::PoolStats PoolStatsOf(const mdw::Warehouse& wh) {
  const mdw::storage::SegmentStore* store = wh.materialized()->paged_store();
  return store == nullptr ? mdw::storage::PoolStats{} : store->pool().stats();
}

bool SamePoolCounts(const mdw::storage::PoolStats& a,
                    const mdw::storage::PoolStats& b) {
  return a.hits == b.hits && a.misses == b.misses &&
         a.evictions == b.evictions && a.prefetched == b.prefetched &&
         a.pages_read == b.pages_read && a.bytes_read == b.bytes_read;
}

mdw::storage::PoolStats Delta(const mdw::storage::PoolStats& a,
                              const mdw::storage::PoolStats& b) {
  return {b.hits - a.hits,
          b.misses - a.misses,
          b.evictions - a.evictions,
          b.prefetched - a.prefetched,
          b.pages_read - a.pages_read,
          b.bytes_read - a.bytes_read,
          b.io_errors - a.io_errors,
          b.io_retries - a.io_retries,
          b.checksum_failures - a.checksum_failures};
}

/// One traced pass: the façade's pipeline spelled out through the layers'
/// public functions, a span around each call.
LayerTotals RunTracedSqlPass(const mdw::Warehouse& wh,
                             const pb::SqlWorkload& w,
                             const mdw::ThreadPool* pool,
                             pb::SpanRecorder* rec, PassFacts* facts) {
  const mdw::MiniWarehouse& mini = *wh.materialized();
  facts->classes.assign(w.class_names.size(), {});
  rec->Clear();
  LayerTotals t;
  const mdw::PlanCache::Stats cache0 = wh.plan_cache_stats();
  const std::uint64_t derived0 = mdw::QueryPlanner::LifetimePlanCount();
  const mdw::storage::PoolStats pool0 = PoolStatsOf(wh);
  const auto shard_of = [&mini](mdw::FragId id) {
    return mini.ShardOfFragment(id);
  };
  const auto rows_of = [&mini](mdw::FragId id) {
    return mini.FragmentRows(id);
  };
  for (std::size_t i = 0; i < w.sequence.size(); ++i) {
    const std::uint32_t s = w.sequence[i];
    const auto req = static_cast<std::int64_t>(i);
    const std::int32_t root = rec->Open(req, "harness.request");
    std::int32_t span = rec->Open(req, "workload.parse", root);
    const mdw::StatusOr<mdw::StarQuery> query =
        mdw::ParseSql(wh.schema(), w.statements[s]);
    rec->Close(span);
    if (!query.ok()) {
      rec->Close(root);
      ++facts->failed;
      facts->digest.AddFailure();
      continue;
    }
    span = rec->Open(req, "fragment.plan", root);
    const std::shared_ptr<const mdw::QueryPlan> plan = wh.PlanShared(*query);
    rec->Close(span);
    const double cpu0 = pb::ProcessCpuSeconds();
    const std::int32_t exec_span = rec->Open(req, "core.exec", root);
    mdw::MiniWarehouse::MdhfExecution exec =
        mini.ExecuteWithPlan(*query, *plan, pool, /*scratch=*/nullptr);
    rec->Close(exec_span);
    t.exec_cpu_us += 1e6 * (pb::ProcessCpuSeconds() - cpu0);
    const bool ok = exec.status.ok();
    const std::int64_t residual =
        exec.fragments_processed - exec.fragments_summarized;
    t.rows_scanned += exec.rows_scanned;
    t.rows_summarized += exec.rows_summarized;
    t.hit_rows += exec.result.rows - exec.rows_summarized;
    t.fragments += exec.fragments_processed;
    t.fragments_summarized += exec.fragments_summarized;
    t.groups += static_cast<std::int64_t>(exec.groups.size());
    t.bitmap_slices += exec.bitmaps_read * residual;
    t.residual_fragments += residual;
    if (!exec.shards.empty()) {
      t.skew_sum += exec.ShardSkew();
      ++t.skewed;
    }
    ClassTally& ct = facts->classes[static_cast<std::size_t>(
        w.statement_class[s])];
    ++ct.count;
    ct.rows_scanned += exec.rows_scanned;
    ct.fragments += exec.fragments_processed;
    facts->rows_scanned += exec.rows_scanned;
    facts->pages_read += exec.pages_read;
    facts->io_retries += exec.io_retries;
    facts->checksum_failures += exec.checksum_failures;
    span = rec->Open(req, "core.table", root);
    const mdw::ResultTable table = pb::TableOf(*query, std::move(exec));
    rec->Close(span);
    rec->Close(root);
    if (ok) {
      facts->digest.Add(table);
    } else {
      ++facts->failed;
      facts->digest.AddFailure();
    }
    // Off the result path: the routing the executor does internally for
    // multi-fragment plans, repeated as its own timed call.
    if (plan->FragmentCount() > 1) {
      const bool summaries =
          mini.summaries_enabled() &&
          (!plan->grouped() || plan->AlignedGrouping());
      span = rec->Open(req, "fragment.route");
      const std::vector<mdw::ShardSelection> selections =
          mdw::RouteSelectionToShards(*plan, mini.num_shards(), summaries,
                                      shard_of, rows_of);
      rec->Close(span);
      ++t.routed;
      for (const auto& sel : selections) {
        t.scan_runs += static_cast<std::int64_t>(sel.scan.size());
        t.summary_runs += static_cast<std::int64_t>(sel.summary.size());
      }
    }
  }
  for (const pb::Span& sp : rec->spans()) {
    const double us = 1e-3 * static_cast<double>(sp.DurationNs());
    const std::string layer = sp.layer;
    if (layer == "harness.request") t.request_us += us;
    else if (layer == "workload.parse") t.parse_us += us;
    else if (layer == "fragment.plan") t.plan_us += us;
    else if (layer == "core.exec") t.exec_us += us;
    else if (layer == "core.table") t.table_us += us;
    else if (layer == "fragment.route") t.route_us += us;
  }
  const mdw::PlanCache::Stats cache1 = wh.plan_cache_stats();
  t.cache.hits = cache1.hits - cache0.hits;
  t.cache.misses = cache1.misses - cache0.misses;
  t.cache.evictions = cache1.evictions - cache0.evictions;
  t.plans_derived = mdw::QueryPlanner::LifetimePlanCount() - derived0;
  t.pool = Delta(pool0, PoolStatsOf(wh));
  return t;
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Every per-layer metric of a traced run; zero where the workload does
/// not exercise the layer.
struct LayerReport {
  double parse_us = 0, plan_us = 0, cache_hits = 0, cache_lookups = 0,
         plans_derived = 0, route_us = 0, routed_share = 0, fragments = 0,
         scan_runs = 0, summary_runs = 0, exec_us = 0, exec_cpu_us = 0,
         rows_scanned = 0, rows_summarized = 0, fragments_summarized = 0,
         hit_rows = 0, shard_skew = 0, bitmap_slices = 0,
         residual_fragments = 0, table_us = 0, groups = 0, lanes = 0;
  mdw::storage::PoolStats pool;  ///< deltas over `per` operations
  double per = 1;                ///< operations the pool deltas cover
  double sched_plan_us = 0, sched_run_us = 0, sched_replay_us = 0,
         rejected = 0, shed_expired = 0, degraded = 0, deadline_missed = 0,
         p99_response_vt = 0, mean_queue_wait_vt = 0, jain_fairness = 0;
  double untraced_us = 0, traced_us = 0;  ///< per operation
};

void AddLayerMetrics(const LayerReport& r, const mdw::Warehouse& wh,
                     Metrics* m) {
  m->Add("workload.parse_us", r.parse_us, "us");
  m->Add("fragment.plan_us", r.plan_us, "us");
  m->Add("fragment.plan_cache_hit_rate",
         Ratio(r.cache_hits, r.cache_lookups), "ratio");
  m->Add("fragment.plan_cache_hits", r.cache_hits, "count");
  m->Add("fragment.plan_cache_lookups", r.cache_lookups, "count");
  m->Add("fragment.plans_derived", r.plans_derived, "count");
  m->Add("fragment.route_us", r.route_us, "us");
  m->Add("fragment.routed_share", r.routed_share, "ratio");
  m->Add("fragment.fragments", r.fragments, "count");
  m->Add("fragment.scan_runs", r.scan_runs, "count");
  m->Add("fragment.summary_runs", r.summary_runs, "count");
  m->Add("core.exec_us", r.exec_us, "us");
  m->Add("core.exec_cpu_us", r.exec_cpu_us, "us");
  m->Add("core.rows_scanned", r.rows_scanned, "count");
  m->Add("core.rows_summarized", r.rows_summarized, "count");
  m->Add("core.fragments_summarized", r.fragments_summarized, "count");
  m->Add("core.covered_fragment_share",
         Ratio(r.fragments_summarized, r.fragments), "ratio");
  m->Add("core.hit_rows", r.hit_rows, "count");
  m->Add("core.hit_rows_per_scanned_row", Ratio(r.hit_rows, r.rows_scanned),
         "ratio");
  m->Add("core.shard_skew", r.shard_skew, "ratio");
  m->Add("bitmap.slices_read", r.bitmap_slices, "count");
  m->Add("bitmap.residual_fragments", r.residual_fragments, "count");
  m->Add("bitmap.reads_per_fragment",
         Ratio(r.bitmap_slices, r.residual_fragments), "count");
  m->Add("core.table_us", r.table_us, "us");
  m->Add("core.groups", r.groups, "count");
  m->Add("common.lanes", r.lanes, "count");
  m->Add("common.pool_utilization",
         Ratio(r.exec_cpu_us, r.exec_us * r.lanes), "ratio");
  const mdw::storage::PoolStats& ps = r.pool;
  const auto per = [&r](std::int64_t v) {
    return static_cast<double>(v) / r.per;
  };
  m->Add("storage.pages_read", per(ps.pages_read), "count");
  m->Add("storage.buffer_hits", per(ps.hits), "count");
  m->Add("storage.buffer_misses", per(ps.misses), "count");
  m->Add("storage.buffer_hit_rate",
         Ratio(static_cast<double>(ps.hits),
               static_cast<double>(ps.hits + ps.misses)),
         "ratio");
  m->Add("storage.evictions", per(ps.evictions), "count");
  m->Add("storage.prefetched", per(ps.prefetched), "count");
  m->Add("storage.bytes_read", per(ps.bytes_read), "B");
  const mdw::storage::PoolStats total = PoolStatsOf(wh);
  m->Add("storage.io_retries", static_cast<double>(total.io_retries),
         "count");
  m->Add("storage.checksum_failures",
         static_cast<double>(total.checksum_failures), "count");
  double stored = 0;
  if (const auto* store = wh.materialized()->paged_store(); store != nullptr) {
    for (int s = 0; s < store->num_shards(); ++s) {
      stored += static_cast<double>(store->SegmentPages(s) *
                                    store->page_size());
    }
  }
  m->Add("storage.segment_bytes", stored, "B");
  m->Add("storage.bytes_per_user_byte",
         stored / static_cast<double>(
                      wh.materialized()->row_count() *
                      wh.schema().physical().fact_tuple_bytes),
         "ratio");
  m->Add("sched.plan_us_per_arrival", r.sched_plan_us, "us");
  m->Add("sched.run_us_per_arrival", r.sched_run_us, "us");
  m->Add("sched.replay_us_per_served", r.sched_replay_us, "us");
  m->Add("sched.rejected", r.rejected, "count");
  m->Add("sched.shed_expired", r.shed_expired, "count");
  m->Add("sched.degraded", r.degraded, "count");
  m->Add("sched.deadline_missed", r.deadline_missed, "count");
  m->Add("sched.p99_response_vt", r.p99_response_vt, "vt");
  m->Add("sched.mean_queue_wait_vt", r.mean_queue_wait_vt, "vt");
  m->Add("sched.jain_fairness", r.jain_fairness, "ratio");
  m->Add("trace.untraced_us", r.untraced_us, "us");
  m->Add("trace.traced_us", r.traced_us, "us");
  m->Add("trace.overhead_share",
         Ratio(r.traced_us - r.untraced_us, r.untraced_us), "ratio");
}

/// Where a reported percentile fell: its class and its position inside
/// that class's samples.
struct PercentileHome {
  int cls = -1;
  double within = 0;  ///< share of the class's samples at or below it
};

PercentileHome HomeOf(const std::vector<double>& latency,
                      const pb::SqlWorkload& w, double p) {
  std::vector<std::pair<double, int>> tagged(latency.size());
  for (std::size_t i = 0; i < latency.size(); ++i) {
    tagged[i] = {latency[i], w.statement_class[w.sequence[i]]};
  }
  const std::int64_t rank =
      pb::NearestRankIndex(static_cast<std::int64_t>(tagged.size()), p);
  auto nth = tagged.begin() + (rank - 1);
  std::nth_element(tagged.begin(), nth, tagged.end());
  const auto [value, cls] = *nth;
  std::int64_t below = 0, count = 0;
  for (const auto& [v, c] : tagged) {
    if (c != cls) continue;
    ++count;
    if (v <= value) ++below;
  }
  return {cls, count == 0 ? 0 : static_cast<double>(below) /
                                    static_cast<double>(count)};
}

constexpr double kPercentiles[] = {50, 90, 99};

/// Checks a seeded sample of distinct statements against the brute-force
/// oracles on the in-RAM warehouse `oracle_wh`; returns the mismatches.
std::int64_t CheckAgainstOracles(const mdw::Warehouse& wh,
                                 const mdw::Warehouse& oracle_wh,
                                 const pb::SqlWorkload& w,
                                 std::uint64_t seed) {
  // Three seeded draws per class from the distinct statements the
  // sequence uses.
  std::vector<std::vector<std::uint32_t>> used(w.class_names.size());
  std::vector<bool> seen(w.statements.size(), false);
  for (const std::uint32_t s : w.sequence) {
    if (seen[s]) continue;
    seen[s] = true;
    used[static_cast<std::size_t>(w.statement_class[s])].push_back(s);
  }
  pb::Rng rng(seed ^ 0x6f7261636c65ull);
  std::int64_t mismatches = 0, checked = 0;
  for (const auto& pool : used) {
    for (int k = 0; k < 3 && !pool.empty(); ++k) {
      const std::uint32_t s = pool[static_cast<std::size_t>(
          rng.Below(static_cast<std::int64_t>(pool.size())))];
      const auto query = mdw::ParseSql(wh.schema(), w.statements[s]);
      const auto outcome = wh.ExecuteSql(w.statements[s]);
      ++checked;
      if (!query.ok() || !outcome.ok() || !outcome->table.has_value() ||
          !pb::SameAnswer(*outcome->table,
                          pb::OracleTable(*oracle_wh.materialized(),
                                          *query))) {
        ++mismatches;
        std::printf("oracle mismatch: %s\n", w.statements[s].c_str());
      }
    }
  }
  std::printf("oracle check: %lld statements, %lld mismatches\n",
              static_cast<long long>(checked),
              static_cast<long long>(mismatches));
  return mismatches;
}

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
};

/// Per class: statements, nearest-rank p50/p99 of `latency` (one value
/// per sequence position), rows scanned and fragments per statement.
void PrintClassTable(const pb::SqlWorkload& w, const PassFacts& facts,
                     const std::vector<double>& latency) {
  std::vector<std::vector<double>> by_class(w.class_names.size());
  for (std::size_t i = 0; i < latency.size(); ++i) {
    by_class[static_cast<std::size_t>(w.statement_class[w.sequence[i]])]
        .push_back(latency[i]);
  }
  std::printf("%-18s %6s %10s %10s %14s %10s\n", "class", "count",
              "p50_us", "p99_us", "rows_scanned", "fragments");
  for (std::size_t c = 0; c < w.class_names.size(); ++c) {
    const ClassTally& t = facts.classes[c];
    const double n = std::max<double>(1.0, static_cast<double>(t.count));
    std::printf("%-18s %6lld %10.2f %10.2f %14.1f %10.1f\n",
                w.class_names[c].c_str(), static_cast<long long>(t.count),
                pb::NearestRank(by_class[c], 50, 0).value_or(0),
                pb::NearestRank(by_class[c], 99, 0).value_or(0),
                static_cast<double>(t.rows_scanned) / n,
                static_cast<double>(t.fragments) / n);
  }
}

RunResult RunSql(const Options& opt, const mdw::Warehouse& wh,
                 const pb::SqlWorkload& w, double deadline) {
  RunResult out;
  const std::size_t n = w.sequence.size();
  std::vector<double> latency(n);
  // Warm-up pass: fills the plan cache and (file-backed) the buffer pool
  // to the state every later pass starts from.
  PassFacts warm;
  RunSqlPass(wh, w, &latency, &warm);
  out.failed += warm.failed;
  out.attempted += static_cast<std::int64_t>(n);
  const std::uint64_t digest = warm.digest.value();

  std::vector<double> qps, mean_us;
  // Each statement's fastest call over the untraced passes. The metrics
  // come from these, so a slow spell of the machine moves them only if it
  // covers every pass of the run, while a slower program moves them all.
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<double> traced_us;
  pb::SpanRecorder rec(opt.trace ? 6 * n : 0);
  std::unique_ptr<mdw::ThreadPool> pool;
  const int lanes = pb::LanesOf(opt.workload);
  if (opt.trace && lanes > 1) {
    pool = std::make_unique<mdw::ThreadPool>(lanes - 1);
  }
  std::vector<LayerTotals> layers;
  std::int64_t passes = 0;
  std::vector<std::int64_t> pages_per_pass;
  // Serial paged passes over one sequence start from the same pool state,
  // so their page counters must repeat exactly.
  const bool paged = opt.workload == pb::Workload::kSqlPaged;
  // Timed passes until the budget is spent; the traced run alternates
  // untraced and traced passes over the same sequence.
  while (passes == 0 || pb::NowSeconds() < deadline ||
         (opt.trace && layers.empty())) {
    const bool traced_pass = opt.trace && passes % 2 == 1;
    PassFacts facts;
    if (traced_pass) {
      layers.push_back(
          RunTracedSqlPass(wh, w, pool.get(), &rec, &facts));
      traced_us.push_back(layers.back().request_us / static_cast<double>(n));
    } else {
      const double wall = RunSqlPass(wh, w, &latency, &facts);
      qps.push_back(static_cast<double>(n) / wall);
      double sum = 0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += latency[i];
        best[i] = std::min(best[i], latency[i]);
      }
      mean_us.push_back(sum / static_cast<double>(n));
      pages_per_pass.push_back(facts.pages_read);
    }
    ++passes;
    out.attempted += static_cast<std::int64_t>(n);
    out.failed += facts.failed;
    if (facts.digest.value() != digest) {
      std::printf("digest mismatch: pass %lld (%s) %016llx != %016llx\n",
                  static_cast<long long>(passes),
                  traced_pass ? "traced" : "untraced",
                  static_cast<unsigned long long>(facts.digest.value()),
                  static_cast<unsigned long long>(digest));
      out.correct = false;
    }
    if (facts.io_retries != 0 || facts.checksum_failures != 0) {
      out.correct = false;
    }
    if (paged && passes > 1 && facts.pages_read != pages_per_pass.front()) {
      std::printf("pages read changed: pass %lld read %lld, pass 1 %lld\n",
                  static_cast<long long>(passes),
                  static_cast<long long>(facts.pages_read),
                  static_cast<long long>(pages_per_pass.front()));
      out.correct = false;
    }
    if (paged && traced_pass &&
        !SamePoolCounts(layers.back().pool, layers.front().pool)) {
      std::printf("buffer pool counters changed: traced pass %zu\n",
                  layers.size());
      out.correct = false;
    }
  }
  const double rss = pb::RssMiB();
  const double measured_s = pb::NowSeconds();

  std::printf("statements per pass: %zu (distinct in pool: %zu), passes: "
              "%lld untraced + %zu traced, digest %016llx\n",
              n, w.statements.size(),
              static_cast<long long>(passes - static_cast<std::int64_t>(
                                                  layers.size())),
              layers.size(), static_cast<unsigned long long>(digest));
  std::printf("latency per statement: its fastest call of %zu passes\n",
              qps.size());
  PrintClassTable(w, warm, best);
  for (const double p : kPercentiles) {
    const PercentileHome h = HomeOf(best, w, p);
    std::printf("p%g falls in %s at position %.3f of the class\n", p,
                w.class_names[static_cast<std::size_t>(h.cls)].c_str(),
                h.within);
  }
  if (opt.workload == pb::Workload::kSqlPaged) {
    std::printf("pages read per pass:");
    for (const auto pages : pages_per_pass) {
      std::printf(" %lld", static_cast<long long>(pages));
    }
    std::printf("\n");
  }

  // ---- answer checks, untimed ----
  if (opt.workload == pb::Workload::kSqlCovered && warm.rows_scanned != 0) {
    std::printf("covered workload scanned %lld rows\n",
                static_cast<long long>(warm.rows_scanned));
    out.correct = false;
  }
  if (opt.workload == pb::Workload::kSqlPaged) {
    // The same sequence on the in-RAM store must give the same answers;
    // that store also serves the oracles (they need in-RAM columns).
    const mdw::Warehouse ram(pb::BenchConfig(pb::Workload::kSqlScan));
    PassFacts ram_facts;
    RunSqlPass(ram, w, &latency, &ram_facts);
    std::printf("sql_scan digest %016llx, sql_paged digest %016llx\n",
                static_cast<unsigned long long>(ram_facts.digest.value()),
                static_cast<unsigned long long>(digest));
    if (ram_facts.digest.value() != digest) out.correct = false;
    out.failed += CheckAgainstOracles(wh, ram, w, opt.seed);
  } else {
    out.failed += CheckAgainstOracles(wh, wh, w, opt.seed);
  }
  if (out.failed != 0) out.correct = false;
  std::printf("checks took %.3f s\n", pb::NowSeconds() - measured_s);

  if (!opt.trace) {
    std::printf("statements per second, per pass:");
    for (const double x : qps) std::printf(" %.0f", x);
    std::printf("\n");
    double best_us = 0;
    for (const double x : best) best_us += x;
    out.metrics.Add("qps", 1e6 * static_cast<double>(n) / best_us, "1/s");
    const char* names[] = {"latency_p50_us", "latency_p90_us",
                           "latency_p99_us"};
    int k = 0;
    for (const double p : kPercentiles) {
      const auto v = pb::NearestRank(best, p);
      if (!v.has_value()) {
        std::printf("p%g not reportable: fewer than 10 samples beyond it\n",
                    p);
        out.correct = false;
      }
      std::printf("p%g: nearest rank of %zu samples\n", p, n);
      out.metrics.Add(names[k++], v.value_or(0), "us");
    }
    out.metrics.Add("rss_mb", rss, "MiB");
    std::printf("mean latency %.3f us\n", Mean(mean_us));
    return out;
  }

  // ---- per-layer metrics of the traced run ----
  if (!opt.spans_out.empty()) {
    if (!pb::ChildrenNest(rec.spans())) {
      std::printf("spans do not nest\n");
      out.correct = false;
    }
    if (!rec.WriteJsonLines(opt.spans_out)) {
      std::printf("cannot write spans to %s\n", opt.spans_out.c_str());
    } else {
      std::printf("spans: %zu written to %s\n", rec.spans().size(),
                  opt.spans_out.c_str());
    }
  }
  const double dn = static_cast<double>(n);
  const auto per_stmt = [&](double LayerTotals::*field) {
    std::vector<double> v;
    for (const auto& l : layers) v.push_back(l.*field / dn);
    return Mean(v);
  };
  const LayerTotals& l = layers.back();
  LayerReport r;
  r.parse_us = per_stmt(&LayerTotals::parse_us);
  r.plan_us = per_stmt(&LayerTotals::plan_us);
  r.cache_hits = static_cast<double>(l.cache.hits);
  r.cache_lookups = static_cast<double>(l.cache.hits + l.cache.misses);
  r.plans_derived = static_cast<double>(l.plans_derived) / dn;
  r.route_us = per_stmt(&LayerTotals::route_us);
  r.routed_share = static_cast<double>(l.routed) / dn;
  r.fragments = static_cast<double>(l.fragments) / dn;
  r.scan_runs = static_cast<double>(l.scan_runs) / dn;
  r.summary_runs = static_cast<double>(l.summary_runs) / dn;
  r.exec_us = per_stmt(&LayerTotals::exec_us);
  r.exec_cpu_us = per_stmt(&LayerTotals::exec_cpu_us);
  r.rows_scanned = static_cast<double>(l.rows_scanned) / dn;
  r.rows_summarized = static_cast<double>(l.rows_summarized) / dn;
  r.fragments_summarized = static_cast<double>(l.fragments_summarized) / dn;
  r.hit_rows = static_cast<double>(l.hit_rows) / dn;
  r.shard_skew = Ratio(l.skew_sum, static_cast<double>(l.skewed));
  r.bitmap_slices = static_cast<double>(l.bitmap_slices) / dn;
  r.residual_fragments = static_cast<double>(l.residual_fragments) / dn;
  r.table_us = per_stmt(&LayerTotals::table_us);
  r.groups = static_cast<double>(l.groups) / dn;
  r.lanes = lanes;
  r.pool = l.pool;
  r.per = dn;
  r.untraced_us = Mean(mean_us);
  r.traced_us = Mean(traced_us);
  AddLayerMetrics(r, wh, &out.metrics);
  std::printf("self time per statement by layer (us):");
  {
    std::map<std::string, double> self;
    const std::vector<std::int64_t> st = pb::SelfTimesNs(rec.spans());
    for (std::size_t i = 0; i < st.size(); ++i) {
      self[rec.spans()[i].layer] += 1e-3 * static_cast<double>(st[i]) / dn;
    }
    for (const auto& [layer, us] : self) {
      std::printf(" %s=%.3f", layer.c_str(), us);
    }
  }
  std::printf("\n");
  return out;
}

// ---------------------------------------------------------------- serve

/// Arrivals of one Serve call that did not come back as an exact answer:
/// rejected, shed or left unserved, degraded, or failed.
std::int64_t ServeFailures(const mdw::BatchOutcome& b, std::size_t arrivals) {
  std::int64_t failed =
      static_cast<std::int64_t>(arrivals - b.queries.size());
  for (const auto& q : b.queries) {
    if (q.degraded || !q.status.ok() || !q.table.has_value()) ++failed;
  }
  return failed;
}

/// Outcome k of a Serve call belongs to the k-th served query in
/// admission order; returns its arrival index.
std::vector<std::size_t> ServedArrivals(const mdw::ServeSchedule& schedule) {
  std::vector<std::size_t> out;
  for (const auto& q : schedule.admitted) {
    if (q.served) out.push_back(static_cast<std::size_t>(q.arrival_index));
  }
  return out;
}

/// Per query class of a pass over the windows: arrivals, virtual response
/// times, and the work the served outcomes report.
struct ServeClassRow {
  std::int64_t count = 0, served = 0, rows_scanned = 0, fragments = 0;
  std::vector<double> response_vt;
};

void TallyServeWindow(const std::vector<mdw::Arrival>& window,
                      const mdw::ServeSchedule& schedule,
                      const mdw::BatchOutcome& b,
                      std::map<std::string, ServeClassRow>* rows) {
  for (const auto& a : window) ++(*rows)[a.query.name()].count;
  const std::vector<std::size_t> served = ServedArrivals(schedule);
  for (std::size_t k = 0; k < served.size() && k < b.queries.size(); ++k) {
    ServeClassRow& r = (*rows)[window[served[k]].query.name()];
    ++r.served;
    r.rows_scanned += b.queries[k].rows_scanned;
    r.fragments += b.queries[k].fragments_processed;
  }
  for (const auto& q : schedule.admitted) {
    if (!q.served) continue;
    (*rows)[window[static_cast<std::size_t>(q.arrival_index)].query.name()]
        .response_vt.push_back(static_cast<double>(q.Response()));
  }
}

void PrintServeClassTable(const std::map<std::string, ServeClassRow>& rows) {
  std::printf("%-14s %7s %7s %12s %12s %14s %10s\n", "class", "count",
              "served", "p50_resp_vt", "p99_resp_vt", "rows_scanned",
              "fragments");
  for (const auto& [name, r] : rows) {
    const double n = std::max<double>(1.0, static_cast<double>(r.served));
    std::printf("%-14s %7lld %7lld %12.0f %12.0f %14.1f %10.1f\n",
                name.c_str(), static_cast<long long>(r.count),
                static_cast<long long>(r.served),
                pb::NearestRank(r.response_vt, 50, 0).value_or(0),
                pb::NearestRank(r.response_vt, 99, 0).value_or(0),
                static_cast<double>(r.rows_scanned) / n,
                static_cast<double>(r.fragments) / n);
  }
}

/// Per-layer totals of one traced pass over the windows.
struct ServeLayers {
  double plan_us = 0, run_us = 0, serve_us = 0;
  double plan_shared_us = 0;  ///< the PlanShared calls inside plan_us
  std::int64_t served = 0;
  LayerReport exec;  ///< outcome counters summed over served queries
  mdw::PlanCache::Stats cache;  ///< deltas over the pass
  std::uint64_t plans_derived = 0;
  std::int64_t rejected = 0, shed_expired = 0, degraded = 0,
               deadline_missed = 0;
  std::vector<double> response_vt, queue_wait_vt;
  std::vector<double> stream_work = std::vector<double>(pb::kServeStreams);
};

/// One traced pass: per window, plan every arrival and derive its
/// demands, run the scheduler, then Serve itself, a span around each.
ServeLayers RunTracedServePass(const mdw::Warehouse& wh,
                               const pb::ServeWorkload& w,
                               pb::SpanRecorder* rec, std::int64_t* failed) {
  ServeLayers out;
  rec->Clear();
  const mdw::PlanCache::Stats cache0 = wh.plan_cache_stats();
  const std::uint64_t derived0 = mdw::QueryPlanner::LifetimePlanCount();
  std::vector<std::int64_t> demands, covered;
  for (int call = 0; call < pb::kServeWindows; ++call) {
    const std::vector<mdw::Arrival> window = pb::ServeWindow(w, call);
    const auto req = static_cast<std::int64_t>(call);
    const std::int32_t root = rec->Open(req, "harness.serve_call");
    std::int32_t span = rec->Open(req, "sched.plan", root);
    demands.clear();
    covered.clear();
    for (const auto& a : window) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::shared_ptr<const mdw::QueryPlan> plan =
          wh.PlanShared(a.query);
      out.plan_shared_us += MicrosSince(t0, std::chrono::steady_clock::now());
      demands.push_back(mdw::VirtualDemand(*plan));
      covered.push_back(!plan->grouped() || plan->AlignedGrouping()
                            ? mdw::CoveredDemand(*plan)
                            : demands.back());
    }
    rec->Close(span);
    span = rec->Open(req, "sched.run", root);
    const mdw::QueryScheduler scheduler(w.config);
    const mdw::ServeSchedule schedule =
        scheduler.Run(window, demands, covered);
    const mdw::ServeMetrics metrics =
        mdw::ComputeServeMetrics(schedule, window, w.config);
    rec->Close(span);
    span = rec->Open(req, "core.serve", root);
    const mdw::BatchOutcome b = wh.Serve(window, w.config);
    rec->Close(span);
    rec->Close(root);

    *failed += ServeFailures(b, window.size());
    out.served += static_cast<std::int64_t>(b.queries.size());
    out.rejected += metrics.total.rejected;
    out.shed_expired += metrics.total.shed_expired;
    out.degraded += metrics.total.degraded;
    out.deadline_missed += metrics.total.deadline_missed;
    for (const auto& q : schedule.admitted) {
      if (!q.served) continue;
      out.response_vt.push_back(static_cast<double>(q.Response()));
      out.queue_wait_vt.push_back(static_cast<double>(q.QueueWait()));
      out.stream_work[static_cast<std::size_t>(q.stream)] +=
          static_cast<double>(q.demand);
    }
    LayerReport& e = out.exec;
    for (const auto& q : b.queries) {
      const auto residual = q.fragments_processed - q.fragments_summarized;
      e.fragments += static_cast<double>(q.fragments_processed);
      e.rows_scanned += static_cast<double>(q.rows_scanned);
      e.rows_summarized += static_cast<double>(q.rows_summarized);
      e.fragments_summarized += static_cast<double>(q.fragments_summarized);
      if (q.aggregate.has_value()) {
        e.hit_rows +=
            static_cast<double>(q.aggregate->rows - q.rows_summarized);
      }
      e.shard_skew += q.shard_skew;
      e.bitmap_slices +=
          static_cast<double>(q.bitmaps_per_fragment * residual);
      e.residual_fragments += static_cast<double>(residual);
    }
  }
  for (const pb::Span& sp : rec->spans()) {
    const double us = 1e-3 * static_cast<double>(sp.DurationNs());
    const std::string layer = sp.layer;
    if (layer == "sched.plan") out.plan_us += us;
    else if (layer == "sched.run") out.run_us += us;
    else if (layer == "core.serve") out.serve_us += us;
  }
  const mdw::PlanCache::Stats cache1 = wh.plan_cache_stats();
  out.cache.hits = cache1.hits - cache0.hits;
  out.cache.misses = cache1.misses - cache0.misses;
  out.plans_derived = mdw::QueryPlanner::LifetimePlanCount() - derived0;
  return out;
}

/// One untraced pass: a timed Serve call per window.
struct ServePass {
  double call_us = 0;  ///< sum of the call times
  std::int64_t served = 0;
  std::int64_t failed = 0;
};

ServePass RunServePass(const mdw::Warehouse& wh, const pb::ServeWorkload& w,
                       std::vector<double>* call_us) {
  ServePass pass;
  for (int i = 0; i < pb::kServeWindows; ++i) {
    const std::vector<mdw::Arrival> window = pb::ServeWindow(w, i);
    const auto a = std::chrono::steady_clock::now();
    const mdw::BatchOutcome b = wh.Serve(window, w.config);
    const double us = MicrosSince(a, std::chrono::steady_clock::now());
    (*call_us)[static_cast<std::size_t>(i)] = us;
    pass.call_us += us;
    pass.served += static_cast<std::int64_t>(b.queries.size());
    pass.failed += ServeFailures(b, window.size());
  }
  return pass;
}

RunResult RunServe(const Options& opt, const mdw::Warehouse& wh,
                   const pb::ServeWorkload& w, double deadline) {
  RunResult out;
  constexpr std::size_t calls = pb::kServeWindows;
  constexpr std::size_t arrivals = calls * pb::kServeWindow;
  const double dn = static_cast<double>(arrivals);
  std::vector<double> call_us(calls);
  // Warm-up pass: fills the plan cache and spawns the pool.
  {
    const ServePass warm = RunServePass(wh, w, &call_us);
    out.attempted += static_cast<std::int64_t>(arrivals);
    out.failed += warm.failed;
  }
  std::vector<double> per_call_us, pass_qps;
  // Each window's fastest call over the untraced passes, as for the SQL
  // statements.
  std::vector<double> best(calls, std::numeric_limits<double>::infinity());
  std::int64_t served_per_pass = 0;
  std::vector<ServeLayers> layers;
  pb::SpanRecorder rec(opt.trace ? 4 * calls : 0);
  std::int64_t passes = 0;
  while (per_call_us.empty() || pb::NowSeconds() < deadline ||
         (opt.trace && layers.empty())) {
    const bool traced_pass = opt.trace && passes % 2 == 1;
    ++passes;
    out.attempted += static_cast<std::int64_t>(arrivals);
    if (traced_pass) {
      layers.push_back(RunTracedServePass(wh, w, &rec, &out.failed));
      continue;
    }
    const ServePass pass = RunServePass(wh, w, &call_us);
    out.failed += pass.failed;
    served_per_pass = pass.served;
    pass_qps.push_back(1e6 * static_cast<double>(pass.served) / pass.call_us);
    per_call_us.push_back(pass.call_us / static_cast<double>(calls));
    for (std::size_t i = 0; i < calls; ++i) {
      best[i] = std::min(best[i], call_us[i]);
    }
  }
  const double rss = pb::RssMiB();
  const double measured_s = pb::NowSeconds();

  // ---- answer check, untimed: served outcomes equal direct Execute ----
  pb::Rng rng(opt.seed ^ 0x73657276ull);
  std::int64_t mismatches = 0, checked = 0;
  std::map<std::string, ServeClassRow> classes;
  for (int i = 0; i < pb::kServeWindows; ++i) {
    const std::vector<mdw::Arrival> window = pb::ServeWindow(w, i);
    mdw::ServeSchedule schedule;
    const mdw::BatchOutcome b = wh.Serve(window, w.config, &schedule);
    TallyServeWindow(window, schedule, b, &classes);
    if (i % 25 != 0 || b.queries.empty()) continue;
    const std::vector<std::size_t> served = ServedArrivals(schedule);
    const auto k = static_cast<std::size_t>(
        rng.Below(static_cast<std::int64_t>(served.size())));
    ++checked;
    if (!(b.queries[k] == wh.Execute(window[served[k]].query))) {
      ++mismatches;
    }
  }
  std::printf("serve check: %lld served outcomes vs direct Execute, %lld "
              "mismatches\n",
              static_cast<long long>(checked),
              static_cast<long long>(mismatches));
  out.failed += mismatches;
  if (out.failed != 0) out.correct = false;
  std::printf("Serve calls per pass: %zu of %d arrivals (mean demand %.1f "
              "vt, offered load %.2f, deadline %lld vt); passes: %zu "
              "untraced + %zu traced\n",
              calls, pb::kServeWindow, w.mean_demand, pb::kServeLoad,
              static_cast<long long>(w.config.deadline_vt),
              per_call_us.size(), layers.size());
  PrintServeClassTable(classes);
  std::printf("checks took %.3f s\n", pb::NowSeconds() - measured_s);

  if (!opt.trace) {
    std::printf("served queries per second of Serve call time, per pass:");
    for (const double x : pass_qps) std::printf(" %.0f", x);
    std::printf("\n");
    double best_us = 0;
    for (const double x : best) best_us += x;
    out.metrics.Add("qps", 1e6 * static_cast<double>(served_per_pass) / best_us,
                    "1/s");
    const char* names[] = {"latency_p50_us", "latency_p90_us",
                           "latency_p99_us"};
    int k = 0;
    // The percentiles are over the windows, whose query mixes differ.
    std::printf("latency: nearest rank over %zu windows, each its fastest "
                "call of %zu passes\n",
                best.size(), per_call_us.size());
    for (const double p : kPercentiles) {
      const auto v = pb::NearestRank(best, p);
      if (!v.has_value()) out.correct = false;
      out.metrics.Add(names[k++], v.value_or(0), "us");
    }
    out.metrics.Add("rss_mb", rss, "MiB");
    std::printf("mean Serve call %.3f us\n", Mean(per_call_us));
    return out;
  }

  if (!opt.spans_out.empty()) {
    if (!pb::ChildrenNest(rec.spans())) {
      std::printf("spans do not nest\n");
      out.correct = false;
    }
    if (rec.WriteJsonLines(opt.spans_out)) {
      std::printf("spans: %zu written to %s\n", rec.spans().size(),
                  opt.spans_out.c_str());
    }
  }
  const ServeLayers& l = layers.back();
  const double served_n = std::max<double>(1.0, static_cast<double>(l.served));
  LayerReport r = l.exec;
  for (double* v : {&r.fragments, &r.rows_scanned, &r.rows_summarized,
                    &r.fragments_summarized, &r.hit_rows, &r.shard_skew,
                    &r.bitmap_slices, &r.residual_fragments}) {
    *v /= served_n;
  }
  r.cache_hits = static_cast<double>(l.cache.hits);
  r.cache_lookups = static_cast<double>(l.cache.hits + l.cache.misses);
  r.plans_derived = static_cast<double>(l.plans_derived) / dn;
  r.lanes = pb::LanesOf(opt.workload);
  std::vector<double> plan, run, replay, traced_us, plan_shared;
  for (const auto& x : layers) {
    plan_shared.push_back(x.plan_shared_us / dn);
    plan.push_back(x.plan_us / dn);
    run.push_back(x.run_us / dn);
    replay.push_back((x.serve_us - x.plan_us - x.run_us) /
                     std::max<double>(1.0, static_cast<double>(x.served)));
    traced_us.push_back(x.serve_us / static_cast<double>(calls));
  }
  r.plan_us = Mean(plan_shared);
  r.sched_plan_us = Mean(plan);
  r.sched_run_us = Mean(run);
  r.sched_replay_us = Mean(replay);
  r.rejected = static_cast<double>(l.rejected);
  r.shed_expired = static_cast<double>(l.shed_expired);
  r.degraded = static_cast<double>(l.degraded);
  r.deadline_missed = static_cast<double>(l.deadline_missed);
  r.p99_response_vt = pb::NearestRank(l.response_vt, 99).value_or(0);
  r.mean_queue_wait_vt = Mean(l.queue_wait_vt);
  double sum = 0, sum_sq = 0;
  for (const double x : l.stream_work) {
    sum += x;
    sum_sq += x * x;
  }
  r.jain_fairness = Ratio(sum * sum, static_cast<double>(pb::kServeStreams) *
                                         sum_sq);
  r.untraced_us = Mean(per_call_us);
  r.traced_us = Mean(traced_us);
  AddLayerMetrics(r, wh, &out.metrics);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--spans-out <file>] [--commit <id>]\n");
    return 2;
  }
  const std::string load_start = pb::LoadAverage();
  const double t_start = pb::NowSeconds();
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              pb::ToString(opt.workload),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);

  StoreBuilder builder(opt);
  const mdw::Warehouse& wh = builder.Build();
  const double setup_s = pb::Median(builder.times());
  std::printf("setup: %d builds, median %.4f s:", kSetups, setup_s);
  for (const double t : builder.times()) std::printf(" %.4f", t);
  std::printf(" (%lld fact rows, %lld fragments)\n",
              static_cast<long long>(wh.materialized()->row_count()),
              static_cast<long long>(wh.fragmentation().FragmentCount()));

  const double t_measure = pb::NowSeconds();
  const double deadline = t_measure + opt.seconds;
  RunResult result;
  if (opt.workload == pb::Workload::kServeTrace) {
    const pb::ServeWorkload w = pb::MakeServeWorkload(wh.schema(), opt.seed);
    result = RunServe(opt, wh, w, deadline);
  } else {
    const pb::SqlWorkload w = pb::MakeSqlWorkload(opt.workload, opt.seed);
    result = RunSql(opt, wh, w, deadline);
  }
  const double t_end = pb::NowSeconds();
  if (!opt.trace) result.metrics.Add("setup_s", setup_s, "s");

  std::printf(
      "meta: {\"commit\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"nproc\": %u, \"loadavg_start\": \"%s\", \"loadavg_end\": "
      "\"%s\", \"setup_total_s\": %.3f, \"measured_and_checks_s\": %.3f}\n",
      opt.commit.c_str(), pb::CompilerId().c_str(), pb::BuildType().c_str(),
      std::thread::hardware_concurrency(), load_start.c_str(),
      pb::LoadAverage().c_str(), t_measure - t_start, t_end - t_measure);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), result.metrics.Json().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
