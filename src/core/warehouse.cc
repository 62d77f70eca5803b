#include "core/warehouse.h"

#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "workload/query_parser.h"

namespace mdw {

namespace {

/// The plan facts every outcome carries, whichever engine ran the plan.
QueryOutcome OutcomeFromPlan(BackendKind backend, const QueryPlan& plan) {
  QueryOutcome outcome;
  outcome.backend = backend;
  outcome.query_class = plan.query_class();
  outcome.io_class = plan.io_class();
  outcome.fragments_processed = plan.FragmentCount();
  outcome.bitmaps_per_fragment = plan.BitmapsPerFragment();
  outcome.selectivity = plan.selectivity();
  return outcome;
}

/// Executes `plan` on the materialised store (parallel on `pool`, serial
/// when it is nullptr) and reports the execution as an outcome.
QueryOutcome ExecuteOnStore(const MiniWarehouse& mini, const StarQuery& query,
                            const QueryPlan& plan, const ThreadPool* pool,
                            MiniWarehouse::ExecScratch* scratch,
                            const ExecOptions& options = {}) {
  QueryOutcome outcome = OutcomeFromPlan(BackendKind::kMaterialized, plan);
  auto mdhf = mini.ExecuteWithPlan(query, plan, pool, scratch, options);
  static_cast<MiniWarehouse::ExecStats&>(outcome) = mdhf;
  outcome.status = mdhf.status;
  outcome.shard_skew = mdhf.ShardSkew();
  outcome.shards = std::move(mdhf.shards);
  outcome.degraded = mdhf.degraded;
  // A failed execution ran its kernels over zero-filled stand-ins, so
  // the sums are meaningless: surface the typed error with NO aggregate
  // (and no table) rather than a plausible-looking wrong answer.
  if (mdhf.status.ok()) {
    outcome.aggregate = mdhf.result;
    std::vector<GroupRow> rows;
    if (query.grouped()) {
      rows = std::move(mdhf.groups);
    } else {
      // Degenerate zero-group case: one row totalling every matching
      // fact row (present even when nothing matched, as SQL does for an
      // ungrouped aggregate).
      rows.push_back({0, mdhf.result.rows, mdhf.result.units_sold,
                      mdhf.result.dollar_sales_cents, mdhf.rows_summarized});
    }
    outcome.table = MakeResultTable(query.aggregates(), query.group_by(),
                                    query.order_by(), std::move(rows));
  }
  return outcome;
}

}  // namespace

const char* ToString(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMaterialized: return "materialized";
    case BackendKind::kSimulated: return "simulated";
  }
  return "?";
}

struct Warehouse::Store {
  /// Builds the store from `config`, moving its schema and storage
  /// settings out.
  Store(WarehouseConfig& config, std::uint64_t seed)
      : mini(std::move(config.schema), seed, config.fragmentation,
             config.enable_fragment_summaries, config.num_shards,
             config.allocation,
             {.path = std::move(config.storage_path),
              .pool_pages = config.storage_pool_pages,
              .prefetch = config.storage_prefetch,
              .retry = config.storage_retry,
              .fault_plan = std::move(config.storage_fault)}),
        num_workers(ThreadPool::ResolveWorkers(config.num_workers)) {}

  /// The worker pool, spawned on the first execution that can use it (so
  /// plan-only and serial warehouses never pay for threads); nullptr
  /// when num_workers == 1.
  const ThreadPool* pool() {
    if (num_workers <= 1) return nullptr;
    std::call_once(pool_once, [this] {
      // ParallelFor also runs on the calling thread, so num_workers lanes
      // need num_workers - 1 pool threads.
      threads = std::make_unique<const ThreadPool>(num_workers - 1);
    });
    return threads.get();
  }

  const MiniWarehouse mini;
  const int num_workers;  ///< the resolved parallel degree (>= 1)
  std::once_flag pool_once;
  std::unique_ptr<const ThreadPool> threads;
};

Warehouse::Warehouse(WarehouseConfig config)
    : seed_(config.seed.value_or(config.sim.seed)) {
  if (config.backend == BackendKind::kMaterialized) {
    // The store owns its schema copy; alias the façade's schema handle to
    // it so fragmentation and planner see the same object the store
    // validates against. It is built fragment-clustered under the
    // configured fragmentation attributes, so plans derived by this
    // façade execute fragment-confined through the row-range directory.
    MDW_CHECK(config.num_shards >= 1, "num_shards must be at least 1");
    store_ = std::make_shared<Store>(config, seed_);
    schema_ = std::shared_ptr<const StarSchema>(store_, &store_->mini.schema());
  } else {
    schema_ = std::make_shared<const StarSchema>(std::move(config.schema));
  }

  // The fragmentation's deleter captures the schema handle: any QueryPlan
  // or simulator holding the fragmentation transitively keeps the schema
  // (and for kMaterialized the fact data) alive.
  auto schema = schema_;
  fragmentation_ = std::shared_ptr<const Fragmentation>(
      new Fragmentation(schema.get(), std::move(config.fragmentation)),
      [schema](const Fragmentation* f) { delete f; });

  if (store_ == nullptr) {
    simulator_ = std::make_shared<const Simulator>(schema_, fragmentation_,
                                                   std::move(config.sim));
  }

  planner_ = std::make_shared<const QueryPlanner>(schema_, fragmentation_);
  if (config.plan_cache_capacity > 0) {
    plan_cache_ = std::make_shared<PlanCache>(config.plan_cache_capacity);
  }
}

QueryPlan Warehouse::Plan(const StarQuery& query) const {
  return *PlanShared(query);
}

std::shared_ptr<const QueryPlan> Warehouse::PlanShared(
    const StarQuery& query) const {
  if (plan_cache_ == nullptr) {
    return std::make_shared<const QueryPlan>(planner_->Plan(query));
  }
  return plan_cache_->GetOrPlan(query, *planner_);
}

QueryOutcome Warehouse::Execute(const StarQuery& query) const {
  const std::shared_ptr<const QueryPlan> plan = PlanShared(query);
  if (store_ != nullptr) {
    return ExecuteOnStore(store_->mini, query, *plan, store_->pool(),
                          /*scratch=*/nullptr);
  }
  QueryOutcome outcome = OutcomeFromPlan(BackendKind::kSimulated, *plan);
  outcome.sim = simulator_->RunSingleUser(std::span(&query, 1),
                                          std::span(plan.get(), 1));
  outcome.response_ms = outcome.sim->avg_response_ms;
  return outcome;
}

StatusOr<QueryOutcome> Warehouse::ExecuteSql(std::string_view sql) const {
  StatusOr<StarQuery> query = ParseSql(*schema_, sql);
  if (!query.ok()) return query.status();
  return Execute(*query);
}

BatchOutcome Warehouse::ExecuteBatch(std::span<const StarQuery> queries,
                                     int streams) const {
  MDW_CHECK(!queries.empty(), "empty batch");
  // The engines consume contiguous plans; cache hits are copied out of
  // the cache (a copy is two vector clones — far cheaper than deriving).
  std::vector<QueryPlan> plans;
  plans.reserve(queries.size());
  for (const auto& q : queries) plans.push_back(*PlanShared(q));

  BatchOutcome batch;
  batch.backend = backend();
  if (store_ == nullptr) {
    for (const QueryPlan& plan : plans) {
      batch.queries.push_back(OutcomeFromPlan(BackendKind::kSimulated, plan));
    }
    batch.sim = simulator_->RunMultiUser(queries, plans, streams);
    batch.makespan_ms = batch.sim->makespan_ms;
    // The simulator attributes responses by submitted query id, so the
    // per-query times are valid at ANY stream count — multi-stream SIMPAD
    // latencies compare apples-to-apples against real per-query runs.
    for (std::size_t i = 0; i < batch.queries.size(); ++i) {
      batch.queries[i].response_ms = batch.sim->response_by_query_ms[i];
    }
    return batch;
  }

  // Materialised execution has no timing model, so `streams` is ignored
  // and a batch is just the per-query outcomes. Inter-query parallelism:
  // one item per query, each executed serially on its lane (a batch of
  // one runs its query on the pool instead). Outcomes land in input
  // order — deterministic. Each lane reuses one scratch across its
  // queries.
  const ThreadPool* pool = store_->pool();
  const ThreadPool* query_pool = queries.size() == 1 ? pool : nullptr;
  std::vector<MiniWarehouse::ExecScratch> scratch(
      static_cast<std::size_t>(ThreadPool::Lanes(pool)));
  batch.queries.resize(queries.size());
  ThreadPool::ParallelForQueues(
      pool, {static_cast<std::int64_t>(queries.size())},
      [&](int lane, int /*queue*/, std::int64_t i) {
        const auto u = static_cast<std::size_t>(i);
        batch.queries[u] =
            ExecuteOnStore(store_->mini, queries[u], plans[u], query_pool,
                           &scratch[static_cast<std::size_t>(lane)]);
      });
  return batch;
}

BatchOutcome Warehouse::Serve(std::span<const Arrival> arrivals,
                              const ServingConfig& serving,
                              ServeSchedule* schedule_out) const {
  MDW_CHECK(store_ != nullptr,
            "Serve() needs BackendKind::kMaterialized — the simulated "
            "backend models multi-user streams via ExecuteBatch(streams)");
  const MiniWarehouse& mini = store_->mini;
  ServingConfig config = serving;
  if (config.num_workers <= 0) config.num_workers = store_->num_workers;
  std::vector<QueryPlan> plans;
  plans.reserve(arrivals.size());
  for (const auto& a : arrivals) plans.push_back(*PlanShared(a.query));

  // ---- deterministic virtual-time schedule ----
  std::vector<std::int64_t> demands;
  demands.reserve(plans.size());
  for (const auto& plan : plans) demands.push_back(VirtualDemand(plan));
  // Covered (degraded-mode) demands unlock OverloadPolicy::kDegrade,
  // but only when this warehouse can actually answer covered-only
  // queries (it has summaries); otherwise expiring queries shed instead
  // of degrading.
  std::vector<std::int64_t> covered_demands;
  if (mini.summaries_enabled()) {
    covered_demands.reserve(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      // A plan grouped below the fragmentation level cannot run
      // covered-only (prefix sums can't split a fragment across groups):
      // advertising its full demand as the covered demand makes the
      // scheduler shed it on overload instead of degrading it.
      const bool degradable =
          !plans[i].grouped() || plans[i].AlignedGrouping();
      covered_demands.push_back(degradable ? CoveredDemand(plans[i])
                                           : demands[i]);
    }
  }
  const QueryScheduler scheduler(config);
  ServeSchedule schedule = scheduler.Run(arrivals, demands, covered_demands);

  // ---- real execution, replaying the dispatch order on the pool ----
  // Outcome slot k belongs to the k-th SERVED query in admission order;
  // the pool claims items in ascending order and item i is the query of
  // dispatch_seq i (dense from 0 over the served queries), so the
  // executor starts queries exactly as the virtual-time policy decided
  // while outcomes land deterministically.
  std::vector<std::size_t> served_slots;
  for (std::size_t slot = 0; slot < schedule.admitted.size(); ++slot) {
    if (schedule.admitted[slot].served) served_slots.push_back(slot);
  }
  std::vector<std::size_t> outcome_of_dispatch(served_slots.size());
  for (std::size_t k = 0; k < served_slots.size(); ++k) {
    outcome_of_dispatch[static_cast<std::size_t>(
        schedule.admitted[served_slots[k]].dispatch_seq)] = k;
  }

  BatchOutcome batch;
  batch.backend = BackendKind::kMaterialized;
  batch.queries.resize(served_slots.size());
  const auto is_cancel_code = [](StatusCode code) {
    return code == StatusCode::kCancelled ||
           code == StatusCode::kDeadlineExceeded;
  };
  const auto run_one = [&](std::size_t k,
                           MiniWarehouse::ExecScratch* scratch) {
    const ScheduledQuery& sq = schedule.admitted[served_slots[k]];
    const auto ai = static_cast<std::size_t>(sq.arrival_index);
    // Degraded dispatches replay in covered-only mode; a per-query
    // wall-clock budget (when configured) links under the serve-wide
    // cancel token, so either tripping abandons this query — typed
    // status, no aggregate — without touching its neighbours.
    ExecOptions options;
    options.covered_only = sq.degraded;
    options.cancel =
        config.exec_deadline_us > 0
            ? CancellationToken::WithTimeoutMicros(config.exec_deadline_us,
                                                   {}, config.cancel)
            : config.cancel;
    // A token tripped before this query even started yields its typed
    // status (with the plan facts) from the executor's entry checkpoint.
    QueryOutcome out = ExecuteOnStore(mini, arrivals[ai].query, plans[ai],
                                      nullptr, scratch, options);
    // Requeue-on-error: re-execute in this query's own dispatch slot
    // (the virtual-time schedule never moves) until the error clears or
    // the budget runs out. Cancelled/expired queries are never retried,
    // and a query whose deadline expires between attempts skips its
    // re-execution — its storage error is replaced by the typed
    // deadline status (counted deadline_missed, not failed). The failed
    // attempts' I/O and failure counters accumulate into the totals and
    // each shard's record, so the outcome accounts for the whole fight,
    // not just the last round, and its shards still sum to its totals.
    while (!out.status.ok() && !is_cancel_code(out.status.code()) &&
           out.requeues < config.max_requeues) {
      if (options.cancel.ShouldStop()) {
        out.status = options.cancel.CancelStatus();
        out.aggregate.reset();
        break;
      }
      QueryOutcome retry = ExecuteOnStore(mini, arrivals[ai].query,
                                          plans[ai], nullptr, scratch, options);
      retry.IoCounters::Merge(out);
      for (std::size_t s = 0; s < retry.shards.size(); ++s) {
        retry.shards[s].IoCounters::Merge(out.shards[s]);
      }
      retry.requeues = out.requeues + 1;
      out = std::move(retry);
    }
    batch.queries[k] = std::move(out);
  };
  // Each query executes serially on its lane, reusing the lane's scratch.
  const ThreadPool* pool = store_->pool();
  std::vector<MiniWarehouse::ExecScratch> scratch(
      static_cast<std::size_t>(ThreadPool::Lanes(pool)));
  ThreadPool::ParallelForQueues(
      pool, {static_cast<std::int64_t>(served_slots.size())},
      [&](int lane, int /*queue*/, std::int64_t i) {
        run_one(outcome_of_dispatch[static_cast<std::size_t>(i)],
                &scratch[static_cast<std::size_t>(lane)]);
      });

  ServeMetrics metrics = ComputeServeMetrics(schedule, arrivals, config);
  // Failure accounting by stream: outcome slot k is the k-th served query
  // in admission order, so its schedule record (and stream) is
  // served_slots[k].
  for (std::size_t k = 0; k < served_slots.size(); ++k) {
    const ScheduledQuery& sq = schedule.admitted[served_slots[k]];
    const QueryOutcome& out = batch.queries[k];
    auto& stream = metrics.streams[static_cast<std::size_t>(sq.stream)];
    if (!out.status.ok()) {
      // Typed cancellation is not a failure: kCancelled counts as
      // cancelled, kDeadlineExceeded as a deadline miss; only genuine
      // storage errors surviving the requeue budget count as failed.
      switch (out.status.code()) {
        case StatusCode::kCancelled:
          ++stream.cancelled;
          ++metrics.total.cancelled;
          break;
        case StatusCode::kDeadlineExceeded:
          ++stream.deadline_missed;
          ++metrics.total.deadline_missed;
          break;
        default:
          ++stream.failed;
          ++metrics.total.failed;
      }
    }
    stream.requeued += out.requeues;
    metrics.total.requeued += out.requeues;
  }
  batch.serving = std::move(metrics);
  if (schedule_out != nullptr) *schedule_out = std::move(schedule);
  return batch;
}

const MiniWarehouse* Warehouse::materialized() const {
  return store_ == nullptr ? nullptr : &store_->mini;
}

const SimConfig& Warehouse::sim_config() const {
  MDW_CHECK(simulator_ != nullptr,
            "sim_config() needs BackendKind::kSimulated, but this "
            "warehouse runs the materialized backend");
  return simulator_->config();
}

PlanCache::Stats Warehouse::plan_cache_stats() const {
  return plan_cache_ == nullptr ? PlanCache::Stats{} : plan_cache_->stats();
}

}  // namespace mdw
