#include "core/execution_backend.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace mdw {

namespace {

/// The plan facts shared by every backend's outcome.
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

}  // namespace

const char* ToString(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMaterialized: return "materialized";
    case BackendKind::kSimulated: return "simulated";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// MaterializedBackend

MaterializedBackend::MaterializedBackend(
    std::shared_ptr<const MiniWarehouse> warehouse,
    std::shared_ptr<const Fragmentation> fragmentation, int num_workers)
    : warehouse_(std::move(warehouse)),
      fragmentation_(std::move(fragmentation)),
      num_workers_(ThreadPool::ResolveWorkers(num_workers)) {
  MDW_CHECK(warehouse_ != nullptr && fragmentation_ != nullptr,
            "materialized backend needs a warehouse and a fragmentation");
  MDW_CHECK(warehouse_->ClusteredFor(*fragmentation_),
            "fragmentation must match the warehouse's clustering");
}

const ThreadPool* MaterializedBackend::pool() const {
  if (num_workers_ <= 1) return nullptr;
  std::call_once(pool_once_, [this] {
    // ParallelFor also runs on the calling thread, so num_workers lanes
    // need num_workers - 1 pool threads.
    pool_ = std::make_shared<const ThreadPool>(num_workers_ - 1);
  });
  return pool_.get();
}

QueryOutcome MaterializedBackend::ExecuteWith(
    const StarQuery& query, const QueryPlan& plan, const ThreadPool* pool,
    MiniWarehouse::ExecScratch* scratch,
    const MiniWarehouse::ExecOptions& options) const {
  QueryOutcome outcome = OutcomeFromPlan(BackendKind::kMaterialized, plan);
  auto mdhf = warehouse_->ExecuteWithPlan(query, plan, pool, scratch, options);
  // Prefer the execution's own record over the façade's plan where both
  // exist, so reported facts can never drift from what actually ran.
  static_cast<MiniWarehouse::ExecStats&>(outcome) = mdhf;
  outcome.query_class = mdhf.query_class;
  outcome.io_class = mdhf.io_class;
  outcome.bitmaps_per_fragment = mdhf.bitmaps_read;
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

QueryOutcome MaterializedBackend::Execute(const StarQuery& query,
                                          const QueryPlan& plan) const {
  return ExecuteWith(query, plan, pool(), /*scratch=*/nullptr);
}

BatchOutcome MaterializedBackend::ExecuteBatch(
    std::span<const StarQuery> queries, std::span<const QueryPlan> plans,
    int streams) const {
  MDW_CHECK(queries.size() == plans.size(), "one plan per query");
  (void)streams;  // no timing model to spread streams over
  BatchOutcome batch;
  batch.backend = BackendKind::kMaterialized;
  if (const ThreadPool* batch_pool = pool();
      batch_pool != nullptr && queries.size() > 1) {
    // Inter-query parallelism: one task per query, each executed serially
    // inside its task (the pool is never nested). Outcomes land in input
    // order — deterministic. Each task owns a scratch for the query it
    // claims (scratches are not thread-safe, so the serial per-batch
    // reuse doesn't apply here).
    std::vector<QueryOutcome> outcomes(queries.size());
    batch_pool->ParallelFor(static_cast<std::int64_t>(queries.size()),
                            [&](std::int64_t i) {
                              const auto u = static_cast<std::size_t>(i);
                              MiniWarehouse::ExecScratch scratch;
                              outcomes[u] = ExecuteWith(queries[u], plans[u],
                                                        nullptr, &scratch);
                            });
    batch.queries = std::move(outcomes);
  } else {
    // One scratch for the whole batch: the per-query bitmap-access buffer
    // is resolved in place instead of reallocated every iteration.
    MiniWarehouse::ExecScratch scratch;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      batch.queries.push_back(
          ExecuteWith(queries[i], plans[i], pool(), &scratch));
    }
  }
  return batch;
}

BatchOutcome MaterializedBackend::Serve(std::span<const Arrival> arrivals,
                                        std::span<const QueryPlan> plans,
                                        ServingConfig config,
                                        ServeSchedule* schedule_out) const {
  MDW_CHECK(arrivals.size() == plans.size(), "one plan per arrival");
  if (config.num_workers <= 0) config.num_workers = num_workers_;

  // ---- deterministic virtual-time schedule ----
  std::vector<std::int64_t> demands;
  demands.reserve(plans.size());
  for (const auto& plan : plans) demands.push_back(VirtualDemand(plan));
  // Covered (degraded-mode) demands unlock OverloadPolicy::kDegrade,
  // but only when this warehouse can actually answer covered-only
  // queries (it has summaries); otherwise expiring queries shed instead
  // of degrading.
  std::vector<std::int64_t> covered_demands;
  if (warehouse_->summaries_enabled()) {
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
  // the pool claims work in dispatch order (ParallelFor hands out
  // ascending indices), so the executor starts queries exactly as the
  // virtual-time policy decided while outcomes land deterministically.
  std::vector<std::pair<std::int64_t, std::size_t>> dispatch_order;
  std::vector<std::size_t> served_slots;
  for (std::size_t slot = 0; slot < schedule.admitted.size(); ++slot) {
    if (!schedule.admitted[slot].served) continue;
    dispatch_order.emplace_back(schedule.admitted[slot].dispatch_seq, slot);
    served_slots.push_back(slot);
  }
  std::sort(dispatch_order.begin(), dispatch_order.end());
  std::vector<std::size_t> outcome_slot_of(schedule.admitted.size(), 0);
  for (std::size_t k = 0; k < served_slots.size(); ++k) {
    outcome_slot_of[served_slots[k]] = k;
  }

  BatchOutcome batch;
  batch.backend = BackendKind::kMaterialized;
  std::vector<QueryOutcome> outcomes(served_slots.size());
  const auto is_cancel_code = [](StatusCode code) {
    return code == StatusCode::kCancelled ||
           code == StatusCode::kDeadlineExceeded;
  };
  const auto run_one = [&](std::size_t slot,
                           MiniWarehouse::ExecScratch* scratch) {
    const ScheduledQuery& sq = schedule.admitted[slot];
    const auto ai = static_cast<std::size_t>(sq.arrival_index);
    // Degraded dispatches replay in covered-only mode; a per-query
    // wall-clock budget (when configured) links under the serve-wide
    // cancel token, so either tripping abandons this query — typed
    // status, no aggregate — without touching its neighbours.
    MiniWarehouse::ExecOptions options;
    options.covered_only = sq.degraded;
    options.cancel =
        config.exec_deadline_us > 0
            ? CancellationToken::WithTimeoutMicros(config.exec_deadline_us,
                                                   {}, config.cancel)
            : config.cancel;
    // A token tripped before this query even started yields its typed
    // status (with the plan facts) from the executor's entry checkpoint.
    QueryOutcome out =
        ExecuteWith(arrivals[ai].query, plans[ai], nullptr, scratch, options);
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
      QueryOutcome retry = ExecuteWith(arrivals[ai].query, plans[ai], nullptr,
                                       scratch, options);
      retry.IoCounters::Merge(out);
      for (std::size_t s = 0; s < retry.shards.size(); ++s) {
        retry.shards[s].IoCounters::Merge(out.shards[s]);
      }
      retry.requeues = out.requeues + 1;
      out = std::move(retry);
    }
    outcomes[outcome_slot_of[slot]] = std::move(out);
  };
  if (const ThreadPool* serve_pool = pool();
      serve_pool != nullptr && dispatch_order.size() > 1) {
    serve_pool->ParallelFor(
        static_cast<std::int64_t>(dispatch_order.size()),
        [&](std::int64_t i) {
          MiniWarehouse::ExecScratch scratch;
          run_one(dispatch_order[static_cast<std::size_t>(i)].second,
                  &scratch);
        });
  } else {
    MiniWarehouse::ExecScratch scratch;
    for (const auto& [seq, slot] : dispatch_order) run_one(slot, &scratch);
  }
  batch.queries = std::move(outcomes);

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

// ---------------------------------------------------------------------------
// SimulatedBackend

SimulatedBackend::SimulatedBackend(
    std::shared_ptr<const StarSchema> schema,
    std::shared_ptr<const Fragmentation> fragmentation, SimConfig config)
    : simulator_(std::move(schema), std::move(fragmentation),
                 std::move(config)) {}

QueryOutcome SimulatedBackend::Execute(const StarQuery& query,
                                       const QueryPlan& plan) const {
  QueryOutcome outcome = OutcomeFromPlan(BackendKind::kSimulated, plan);
  outcome.sim = simulator_.RunSingleUser(std::span(&query, 1),
                                         std::span(&plan, 1));
  outcome.response_ms = outcome.sim->avg_response_ms;
  return outcome;
}

BatchOutcome SimulatedBackend::ExecuteBatch(std::span<const StarQuery> queries,
                                            std::span<const QueryPlan> plans,
                                            int streams) const {
  MDW_CHECK(queries.size() == plans.size(), "one plan per query");
  BatchOutcome batch;
  batch.backend = BackendKind::kSimulated;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batch.queries.push_back(OutcomeFromPlan(BackendKind::kSimulated, plans[i]));
  }
  batch.sim = simulator_.RunMultiUser(queries, plans, streams);
  batch.makespan_ms = batch.sim->makespan_ms;
  // The simulator attributes responses by submitted query id, so the
  // per-query times are valid at ANY stream count — multi-stream SIMPAD
  // latencies compare apples-to-apples against real per-query runs.
  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    batch.queries[i].response_ms = batch.sim->response_by_query_ms[i];
  }
  return batch;
}

}  // namespace mdw
