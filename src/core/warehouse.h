#ifndef MDW_CORE_WAREHOUSE_H_
#define MDW_CORE_WAREHOUSE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "alloc/disk_allocation.h"
#include "common/status.h"
#include "core/mini_warehouse.h"
#include "fragment/fragmentation.h"
#include "fragment/plan_cache.h"
#include "fragment/query_planner.h"
#include "fragment/star_query.h"
#include "sched/query_scheduler.h"
#include "schema/star_schema.h"
#include "sim/metrics.h"
#include "sim/sim_config.h"
#include "sim/simulator.h"

namespace mdw {

/// How a Warehouse executes queries.
enum class BackendKind {
  /// Fully materialised in-memory facts (core/mini_warehouse): functional
  /// aggregates, exact rows touched; only feasible at small scale.
  kMaterialized,
  /// SIMPAD discrete-event simulation (sim/simulator): timing and device
  /// metrics at arbitrary scale; the fact data is never materialised.
  kSimulated,
};

const char* ToString(BackendKind kind);

/// Unified result of executing one star query through any backend.
///
/// Population rules:
/// - The plan facts (including the ExecStats base's
///   fragments_processed) are ALWAYS present, on every backend and on
///   every outcome, a failed or cancelled one included — they come from
///   the QueryPlan the façade derived and the engine ran (plan-first
///   pipeline; see docs/ARCHITECTURE.md).
/// - The other ExecStats counters (see MiniWarehouse::ExecStats for their
///   meaning) are populated by kMaterialized only; on kSimulated they
///   stay 0 (its I/O counts live in `sim` instead).
/// - `table` is the primary functional result, engaged IFF
///   backend == kMaterialized AND `status` is ok. It carries the
///   query's AggregateSpec/GroupBy/OrderBy and one GroupRow per
///   non-empty group in ORDER BY order (key-ascending without one,
///   truncated to LIMIT). An ungrouped query yields the degenerate
///   zero-group table: exactly one row with key 0 summing every
///   matching fact row — even when no row matched (SQL semantics for an
///   ungrouped aggregate).
/// - `aggregate` is engaged IFF backend == kMaterialized AND `status` is
///   ok (exact SUMs over the matching rows). It survives as the
///   deprecated scalar mirror of the zero-group case: it always holds
///   the grand total over all groups (equal to the ungrouped table's
///   only row); new code should read `table`. On kSimulated it is
///   nullopt — the fact data is never materialised, so there is nothing
///   to sum.
/// - `sim` and `response_ms` are populated IFF backend == kSimulated:
///   `sim` holds the full device/timing metrics of a single-query run
///   and `response_ms` mirrors sim->avg_response_ms. On kMaterialized
///   `sim` is nullopt and `response_ms` stays 0 — materialised
///   execution has no timing model.
struct QueryOutcome : MiniWarehouse::ExecStats {
  BackendKind backend = BackendKind::kSimulated;

  // ---- plan facts (always present, with fragments_processed) ----
  QueryClass query_class = QueryClass::kUnsupported;
  IoClass io_class = IoClass::kIoc2NoSupp;
  int bitmaps_per_fragment = 0;
  double selectivity = 0;

  // ---- functional result (kMaterialized) ----
  /// The result table (see the population rules above). On a degraded
  /// outcome its rows cover exactly the plan's fully-covered fragments,
  /// like `aggregate`.
  std::optional<ResultTable> table;
  std::optional<MiniWarehouse::AggregateResult> aggregate;
  /// Per-shard split of a sharded materialized execution (index = shard
  /// id), summing to the outcome's counters, and its skew — see
  /// MiniWarehouse::MdhfExecution::shards / ShardSkew(). Empty/0 unless
  /// kMaterialized with WarehouseConfig::num_shards > 1.
  std::vector<MiniWarehouse::ExecStats> shards;
  double shard_skew = 0;
  /// Storage health of a materialized execution. `status` is ok on every
  /// healthy run (RAM or file-backed); when a page read still fails
  /// after the buffer pool's retry policy, `status` carries the typed
  /// error (kIoError / kCorruption), `aggregate` is DISENGAGED (the
  /// partial sums are not trustworthy), and the failure is confined to
  /// this query — other queries of the same batch/serve run are
  /// unaffected, and nothing poisoned stays in the buffer pool. The
  /// failure counters of the ExecStats base attribute the failed read
  /// attempts, retry attempts issued, and CRC verification failures to
  /// this query. Always ok on kSimulated.
  Status status;
  /// Re-executions the serving requeue policy issued for this query
  /// (ServingConfig::max_requeues); 0 outside Warehouse::Serve.
  int requeues = 0;
  /// Deadline/cancellation semantics reuse `status` and `aggregate`: a
  /// query abandoned mid-execution (expired deadline, explicit cancel,
  /// or a serving requeue skipped because the deadline had passed)
  /// carries kDeadlineExceeded/kCancelled in `status` with `aggregate`
  /// DISENGAGED — a tripped query never reports a partial sum. A query
  /// that completed before its token tripped keeps its ok status and
  /// exact aggregate.
  ///
  /// Set iff this query ran in degraded covered-only mode (overload
  /// deadline rescue): `aggregate` is engaged but covers EXACTLY the
  /// plan's fully-covered fragments, answered from the measure prefix
  /// sums — an under-approximation of the full answer, never a partial
  /// scan. rows_scanned is 0 on a degraded outcome.
  bool degraded = false;

  // ---- timing and device metrics (kSimulated) ----
  std::optional<SimResult> sim;
  double response_ms = 0;  ///< convenience mirror of sim->avg_response_ms

  /// Field-wise equality — the serving tests' "bit-identical to a direct
  /// Execute" guarantee is checked through this.
  friend bool operator==(const QueryOutcome& a,
                         const QueryOutcome& b) = default;
};

/// Result of executing a batch of queries: per-query outcomes in input
/// order plus run-level statistics.
///
/// Population rules:
/// - `queries[i]` corresponds to the i-th submitted query. Plan facts
///   are always filled; the per-query optionals follow the QueryOutcome
///   rules for the batch's backend.
/// - kMaterialized: `sim` is nullopt and `makespan_ms` is 0.
/// - kSimulated: `sim` is engaged with the WHOLE-RUN metrics — device
///   utilizations, I/O counts and response-time statistics cover the
///   complete (possibly multi-stream) run, not any single query — and
///   `makespan_ms` mirrors sim->makespan_ms.
///
/// Per-query attribution: `queries[i].response_ms` is filled for EVERY
/// stream count — the simulator attributes each response to its
/// submitted query id (SimResult::response_by_query_ms), so multi-stream
/// simulated latencies compare per-query against real executions. (The
/// historical completion-order vector survives as sim->response_ms.)
///
/// Serving runs (Warehouse::Serve): `serving` is engaged with the
/// deterministic virtual-time metrics — per-stream latency percentiles,
/// queue wait vs service time, rejected counts, and the Jain fairness
/// index — and `queries` holds the outcomes of the SERVED queries in
/// admission order (rejected/unserved arrivals execute nothing).
struct BatchOutcome {
  BackendKind backend = BackendKind::kSimulated;
  std::vector<QueryOutcome> queries;

  std::optional<SimResult> sim;
  std::optional<ServeMetrics> serving;
  double makespan_ms = 0;

  double ThroughputPerSecond() const {
    return sim.has_value() ? sim->ThroughputPerSecond() : 0;
  }
};

/// Everything needed to stand up a warehouse: the star schema, the MDHF
/// fragmentation attributes, and which execution backend answers queries.
struct WarehouseConfig {
  StarSchema schema;

  /// MDHF fragmentation attributes (empty = the unfragmented baseline).
  std::vector<FragAttr> fragmentation;

  BackendKind backend = BackendKind::kSimulated;

  /// Hardware and policy settings; used by BackendKind::kSimulated.
  SimConfig sim = {};

  /// Fact-population seed (BackendKind::kMaterialized) and the default
  /// seed for workload drivers running against this warehouse. Defaults
  /// to sim.seed so one seed controls the whole setup.
  std::optional<std::uint64_t> seed;

  /// Capacity (entries) of the shared plan cache memoizing Plan() results
  /// by canonical query signature; 0 disables caching and every
  /// Plan/Execute derives afresh. Copies of a Warehouse share one cache,
  /// so repeated workloads hit across copies.
  std::size_t plan_cache_capacity = 256;

  /// Parallel degree of the materialized backend (the paper's partition
  /// parallelism): fragment row ranges of one query — and the queries of a
  /// batch — are processed as concurrent tasks. 0 = use the hardware
  /// (std::thread::hardware_concurrency), 1 = serial fallback, n = n
  /// workers. Results are bit-identical for any value. Ignored by the
  /// simulated backend (it models its own parallelism via SimConfig).
  int num_workers = 0;

  /// Coverage-aware aggregation on the materialized backend: build measure
  /// prefix sums over the fragment-clustered layout so fully-covered
  /// fragments (every row a hit, decided by the planner from the hierarchy
  /// alone) are answered in O(1) per run instead of scanned. Aggregates
  /// are bit-identical either way; `false` restores the scan-everything
  /// behaviour for A/B benchmarking. Ignored by the simulated backend.
  bool enable_fragment_summaries = true;

  /// Physical shards of the materialized store (the paper's disks made
  /// real): fragments are declustered over `num_shards` contiguous store
  /// regions by `allocation`, and execution schedules one affinity task
  /// per shard — idle workers steal residual scan chunks — recording
  /// per-shard work and a skew metric in QueryOutcome. Results are
  /// bit-identical at any shard count. 1 = unsharded (default). Ignored
  /// by the simulated backend (its disks come from SimConfig).
  int num_shards = 1;

  /// Fragment -> shard mapping policy (round robin with optional
  /// round_gap / cluster_factor, Sec. 4.6). `num_disks` is overridden by
  /// `num_shards`; bitmap placement is irrelevant to the in-memory store.
  /// The same AllocationConfig drives the simulator's DiskAllocation, so
  /// one allocation policy can be evaluated in simulation and on real
  /// hardware side by side (see examples/speedup_study).
  AllocationConfig allocation = {};

  /// Non-empty: file-backed materialized store. At construction each
  /// shard's fact columns, measures, and prefix-sum summaries are
  /// written (or reused byte-identically) as page-aligned segment files
  /// under this directory — one subdirectory per shard — and the in-RAM
  /// copies are dropped; queries then read through a page-granular
  /// buffer pool and QueryOutcome reports pages_read / buffer_hits /
  /// bytes_read. Aggregates and logical counters stay bit-identical to
  /// the in-RAM store. Ignored by the simulated backend.
  std::string storage_path = {};
  /// Buffer-pool capacity in pages shared by all shard segments
  /// (file-backed mode only).
  std::int64_t storage_pool_pages = 4096;
  /// Read ahead over coalesced unfiltered scan runs (best-effort).
  bool storage_prefetch = true;
  /// How many times the buffer pool retries a failed page load (read
  /// error or checksum mismatch) before the query surfaces a typed error
  /// in QueryOutcome::status. Default: fail on the first error.
  storage::StorageRetryPolicy storage_retry = {};
  /// Deterministic fault injection over the store's page reads — the
  /// chaos-testing hook (see docs/ARCHITECTURE.md, "Failure model").
  /// Disabled by default; file-backed mode only.
  storage::FaultPlan storage_fault = {};
};

/// The single entry point over the paper's machinery: owns the schema,
/// fragmentation, query planner and plan cache, and one engine — the
/// materialised MiniWarehouse with its worker pool, or the SIMPAD
/// Simulator — and executes star queries through a uniform surface.
///
///   mdw::Warehouse wh({.schema = mdw::MakeApb1Schema(),
///                      .fragmentation = {{mdw::kApb1Time, 2},
///                                        {mdw::kApb1Product, 3}}});
///   auto outcome = wh.Execute(mdw::apb1_queries::OneMonthOneGroup(3, 41));
///
/// Value semantics: a Warehouse is copyable and movable; copies share the
/// immutable schema/fragmentation/engine state and one worker pool, so
/// handing a Warehouse around (or destroying the original) never
/// dangles — the hazard of wiring StarSchema* / Fragmentation* into
/// planners and simulators by hand. Plans returned by Plan() likewise
/// keep the fragmentation (and transitively the schema) alive on their
/// own.
class Warehouse {
 public:
  explicit Warehouse(WarehouseConfig config);

  BackendKind backend() const {
    return store_ != nullptr ? BackendKind::kMaterialized
                             : BackendKind::kSimulated;
  }
  const StarSchema& schema() const { return *schema_; }
  const Fragmentation& fragmentation() const { return *fragmentation_; }
  std::uint64_t seed() const { return seed_; }

  /// Classifies the query against the fragmentation (Sec. 4.2/4.5) and
  /// derives its fragment set; valid independently of the backend.
  /// Served from the plan cache when enabled (returns a copy of the
  /// cached plan; use PlanShared() to share the cached object itself).
  QueryPlan Plan(const StarQuery& query) const;

  /// Like Plan(), but returns the cache-resident plan without copying
  /// (or a freshly derived one when the cache is disabled). This is the
  /// plan Execute()/ExecuteBatch() run on.
  std::shared_ptr<const QueryPlan> PlanShared(const StarQuery& query) const;

  /// Plans (cache-first) and executes one query on the configured
  /// backend; the backend never re-plans.
  QueryOutcome Execute(const StarQuery& query) const;

  /// One-call SQL front end: parses `sql` (the dialect of
  /// workload/query_parser.h — SELECT aggregates, WHERE, GROUP BY,
  /// ORDER BY ... LIMIT), plans it cache-first, and executes on the
  /// configured backend. A malformed statement returns kInvalidArgument
  /// carrying the parser's diagnostic; a well-formed statement returns
  /// the QueryOutcome exactly as Execute() would (execution-side
  /// failures stay typed inside QueryOutcome::status).
  StatusOr<QueryOutcome> ExecuteSql(std::string_view sql) const;

  /// Executes a batch as one run. On the simulated backend `streams` > 1
  /// runs the batch in concurrent query streams (multi-user mode); the
  /// materialized backend ignores it.
  BatchOutcome ExecuteBatch(std::span<const StarQuery> queries,
                            int streams = 1) const;

  /// Open-loop multi-user serving (materialized backend only): plans
  /// every arrival (cache-first), admits the trace through a
  /// deterministic virtual-time QueryScheduler under `config` (FCFS,
  /// credit/fair-share or SRPT dispatch, bounded-queue admission
  /// control), then executes the served queries on the warehouse's pool
  /// in dispatch order, each serially within its task, so every served
  /// query's QueryOutcome is bit-identical to Execute() of the same
  /// query. `config.num_workers == 0` adopts the warehouse's resolved
  /// parallel degree. Returns the served queries' outcomes in admission
  /// order with BatchOutcome::serving engaged — per-stream p50/p95/p99
  /// latency, queue wait vs service time, rejected counts and the Jain
  /// fairness index, all in virtual time so they reproduce bit-for-bit
  /// regardless of thread timing. `schedule_out` (optional) receives the
  /// full schedule.
  ///
  /// Deadlines: with `config.deadline_vt` (or per-stream overrides) set,
  /// admission rejects provably-infeasible arrivals, and expired waiting
  /// queries are shed (or degraded to covered-only when their stream
  /// opts in) before dispatch; which queries complete, degrade or shed
  /// is deterministic at any worker or shard count. With
  /// `config.exec_deadline_us` set every execution also runs under a
  /// wall-clock token (linked under `config.cancel`); a tripped
  /// execution yields a typed kDeadlineExceeded/kCancelled outcome with
  /// no aggregate, its neighbours unaffected.
  ///
  /// Requeues: a query that fails with a storage error re-executes in
  /// its own dispatch slot up to `config.max_requeues` times, and its
  /// outcome accounts for the I/O of every attempt. A query whose wall
  /// deadline expired is never re-executed; it counts as
  /// deadline_missed, not failed.
  BatchOutcome Serve(std::span<const Arrival> arrivals,
                     const ServingConfig& config,
                     ServeSchedule* schedule_out = nullptr) const;

  /// The materialised mini-warehouse backing kMaterialized, or nullptr —
  /// ground-truth checks (full scans, bitmap paths) go through this.
  const MiniWarehouse* materialized() const;

  /// The simulator settings backing kSimulated; aborts on kMaterialized.
  const SimConfig& sim_config() const;

  /// Hit/miss/eviction counters of the shared plan cache; all-zero (with
  /// capacity 0) when caching is disabled. Copies of this Warehouse
  /// report the same counters — they share the cache.
  PlanCache::Stats plan_cache_stats() const;

 private:
  /// The materialised store and its worker pool, shared by copies.
  struct Store;

  std::shared_ptr<const StarSchema> schema_;
  std::shared_ptr<const Fragmentation> fragmentation_;
  std::shared_ptr<Store> store_;                ///< kMaterialized only
  std::shared_ptr<const Simulator> simulator_;  ///< kSimulated only
  std::shared_ptr<const QueryPlanner> planner_;
  std::shared_ptr<PlanCache> plan_cache_;  ///< nullptr when disabled
  std::uint64_t seed_ = 42;
};

}  // namespace mdw

#endif  // MDW_CORE_WAREHOUSE_H_
