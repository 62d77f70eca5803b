#ifndef MDW_SCHED_QUERY_SCHEDULER_H_
#define MDW_SCHED_QUERY_SCHEDULER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "fragment/query_planner.h"
#include "fragment/star_query.h"

namespace mdw {

/// Dispatch policy of the open-loop serving front end.
enum class SchedPolicy {
  /// Global first-come-first-served: queries dispatch in admission order
  /// regardless of which stream submitted them. Simple and latency-fair
  /// per query, but a stream may grab an arbitrary share of the service
  /// capacity by submitting more (or heavier) queries.
  kFcfs,
  /// Credit/fair-share: every backlogged stream accrues credits in
  /// proportion to its weight (idle streams accrue nothing, so there is
  /// no hoarding), and the backlogged stream with the highest credit
  /// balance is served next, its balance charged by the dispatched
  /// query's demand. Work-conserving: a server never idles while any
  /// stream has a waiting query, even when every balance is negative.
  /// Under saturation per-stream completed work converges to the
  /// configured weight ratios.
  kCredit,
  /// Shortest-remaining-processing-time (here: shortest demand first,
  /// since virtual service is non-preemptive): the waiting query with
  /// the globally smallest demand dispatches next, ties to the older
  /// admission. Minimizes mean response time under skewed demands at
  /// the cost of starving heavy queries while light ones keep arriving
  /// — pair with deadlines/shedding to bound that starvation.
  kSrpt,
};

const char* ToString(SchedPolicy policy);

/// What to do with a query that can no longer meet its deadline while
/// still waiting (see ServingConfig::overload).
enum class OverloadPolicy {
  /// Drop it: the query is removed from the queue, never executed, and
  /// counted as shed_expired (its outcome carries kDeadlineExceeded).
  kShed,
  /// Downgrade it to covered-only degraded execution: its demand is
  /// replaced by the (much smaller) covered demand — the fully-covered
  /// fragments answered from prefix-sum summaries, residual scans
  /// skipped — and the outcome is flagged `degraded`. Falls back to
  /// shedding when even the degraded demand cannot meet the deadline
  /// (or when no covered demand was provided).
  kDegrade,
};

const char* ToString(OverloadPolicy policy);

/// One open-loop client request: stream `stream` submits `query` at
/// virtual time `vt`. Traces are sorted by vt (ties keep trace order).
struct Arrival {
  std::int64_t vt = 0;
  int stream = 0;
  StarQuery query;
};

/// Settings of one serving run.
struct ServingConfig {
  SchedPolicy policy = SchedPolicy::kFcfs;

  /// Virtual service lanes. The virtual-time model dispatches at most
  /// this many queries concurrently — matching the real concurrency the
  /// executing pool offers. 0 = take the warehouse backend's resolved
  /// num_workers (Warehouse::Serve fills it in).
  int num_workers = 0;

  /// Admission bound: the maximum number of queries WAITING for a server
  /// (in-service queries excluded) across all streams. An arrival that
  /// finds the queue full is rejected (shed) and never executed.
  /// 0 = unbounded.
  std::int64_t queue_capacity = 0;

  /// Per-stream weights for SchedPolicy::kCredit, indexed by stream id;
  /// streams beyond the vector (or with a non-positive entry) weigh 1.0.
  /// Ignored by kFcfs.
  std::vector<double> weights;

  /// Measurement horizon: no query is dispatched at or after this
  /// virtual time, so under overload per-stream completed work measures
  /// the policy's share while every stream is still backlogged (admitted
  /// queries left waiting are reported as unserved). 0 = serve to drain.
  std::int64_t horizon_vt = 0;

  /// Failure requeue budget (materialized serving only): a served query
  /// whose execution surfaces a storage error is re-executed in place up
  /// to this many extra times before the error sticks in its outcome.
  /// The virtual-time schedule is untouched — requeues re-run inside the
  /// query's dispatch slot, so latency metrics stay deterministic.
  /// 0 = fail on the first error.
  int max_requeues = 0;

  /// Per-query completion deadline in virtual time: an admitted query
  /// must complete by arrival_vt + deadline_vt. Deadline-aware admission
  /// rejects an arrival on the spot when it provably cannot meet its
  /// deadline (its own demand doesn't fit; under kFcfs additionally when
  /// the committed backlog — which nothing can overtake — pushes its
  /// start too late). Queries that become infeasible while WAITING are
  /// shed (or degraded, see `overload`) at the next event boundary, so a
  /// dispatched query always meets its deadline in virtual time.
  /// 0 = no deadline.
  std::int64_t deadline_vt = 0;
  /// Per-stream deadline override, indexed by stream id; streams beyond
  /// the vector (or with a non-positive entry) use `deadline_vt`.
  std::vector<std::int64_t> stream_deadline_vt;

  /// What happens to a waiting query that can no longer meet its
  /// deadline; `stream_overload` overrides per stream (streams beyond
  /// the vector use `overload`). kDegrade needs covered demands passed
  /// to Run() and falls back to shedding when even the covered demand
  /// misses the deadline.
  OverloadPolicy overload = OverloadPolicy::kShed;
  std::vector<OverloadPolicy> stream_overload;

  /// Wall-clock execution budget per dispatched query in microseconds
  /// (materialized serving only): each execution runs under a
  /// steady-clock CancellationToken with this timeout, so a query stuck
  /// on slow/faulty storage returns a typed kDeadlineExceeded outcome
  /// instead of holding its worker. 0 = no wall-clock budget.
  std::int64_t exec_deadline_us = 0;

  /// Serve-wide cancellation (materialized serving only): tripping this
  /// token cancels the queries still executing — each returns a typed
  /// kCancelled outcome — while already-completed outcomes are kept.
  /// Default-constructed = unarmed (never trips, costs one null check).
  CancellationToken cancel;

  /// Weight of stream `s` under this config (>= the 1.0 default).
  double WeightOf(int s) const {
    const auto u = static_cast<std::size_t>(s);
    return u < weights.size() && weights[u] > 0 ? weights[u] : 1.0;
  }

  /// Relative deadline of stream `s` (0 = none).
  std::int64_t DeadlineOf(int s) const {
    const auto u = static_cast<std::size_t>(s);
    if (u < stream_deadline_vt.size() && stream_deadline_vt[u] > 0) {
      return stream_deadline_vt[u];
    }
    return deadline_vt;
  }

  /// Overload policy of stream `s`.
  OverloadPolicy OverloadOf(int s) const {
    const auto u = static_cast<std::size_t>(s);
    return u < stream_overload.size() ? stream_overload[u] : overload;
  }
};

/// The deterministic virtual-time record of one admitted query.
struct ScheduledQuery {
  std::int64_t arrival_index = 0;  ///< index into the arrival trace
  int stream = 0;
  std::int64_t enqueue_seq = 0;  ///< admission order (dense, 0-based)
  std::int64_t arrival_vt = 0;
  std::int64_t demand = 0;  ///< virtual service demand (work units)
  /// Set iff the query was dispatched before the horizon.
  bool served = false;
  std::int64_t dispatch_seq = -1;  ///< dispatch order (dense, 0-based)
  std::int64_t dispatch_vt = 0;
  std::int64_t completion_vt = 0;
  /// Absolute completion deadline (arrival_vt + the stream's relative
  /// deadline); 0 = none.
  std::int64_t deadline_vt = 0;
  /// Set iff the query expired while waiting and was dropped without
  /// dispatching (it still appears in `admitted`, with served == false).
  bool shed_expired = false;
  /// Set iff the query was downgraded to covered-only execution to meet
  /// its deadline; `demand` then holds the covered demand it ran with.
  bool degraded = false;

  std::int64_t QueueWait() const { return dispatch_vt - arrival_vt; }
  std::int64_t Response() const { return completion_vt - arrival_vt; }
};

/// Full schedule of one serving run, derived single-threadedly in virtual
/// time — identical for a given (arrivals, demands, config) regardless of
/// how many real threads later execute it.
struct ServeSchedule {
  /// Admitted queries in admission (enqueue_seq) order; a subsequence of
  /// the arrival trace. Unserved entries (admitted but still waiting at
  /// the horizon) have served == false.
  std::vector<ScheduledQuery> admitted;
  /// Arrival indices rejected by admission control, ascending.
  std::vector<std::int64_t> rejected;
  /// Completion time of the last served query (0 if nothing ran).
  std::int64_t makespan_vt = 0;
  /// Virtual time during which a server idled although a query waited,
  /// before the horizon. 0 by construction — the dispatch loop is
  /// work-conserving; exposed so tests can assert the invariant.
  std::int64_t idle_while_backlogged_vt = 0;
  /// Time-weighted mean depth of the waiting queue over the makespan,
  /// and the deepest it ever got.
  double mean_queue_depth = 0;
  std::int64_t queue_high_water = 0;
  /// Backpressure signal: fraction of the makespan the waiting queue sat
  /// at capacity, i.e. every arrival in that window was shed. Always 0
  /// with queue_capacity == 0.
  double backpressure_fraction = 0;

  std::int64_t ServedCount() const {
    std::int64_t n = 0;
    for (const auto& q : admitted) n += q.served ? 1 : 0;
    return n;
  }

  std::int64_t ShedExpiredCount() const {
    std::int64_t n = 0;
    for (const auto& q : admitted) n += q.shed_expired ? 1 : 0;
    return n;
  }

  std::int64_t DegradedCount() const {
    std::int64_t n = 0;
    for (const auto& q : admitted) n += q.degraded && q.served ? 1 : 0;
    return n;
  }
};

/// Per-stream serving statistics; virtual-time units throughout, so every
/// field is deterministic for a given trace and config.
struct StreamServeStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;  ///< dispatched before the horizon
  /// Sum of the completed queries' virtual demands — the stream's share
  /// of the service capacity (what the credit weights meter).
  std::int64_t work = 0;
  double p50_response_vt = 0;
  double p95_response_vt = 0;
  double p99_response_vt = 0;
  double mean_queue_wait_vt = 0;
  double mean_service_vt = 0;
  /// Completed queries per 1000 virtual-time units.
  double throughput_per_kvt = 0;
  /// Served queries of this stream whose execution still surfaced a
  /// storage error after the requeue budget (their outcomes carry the
  /// typed status; no aggregate). Only materialized serving fills these.
  std::int64_t failed = 0;
  /// Re-executions the requeue policy issued for this stream's queries
  /// (successful or not).
  std::int64_t requeued = 0;
  /// Admitted queries of this stream dropped from the queue because
  /// their deadline expired before dispatch (never executed).
  std::int64_t shed_expired = 0;
  /// Served queries of this stream that ran in degraded covered-only
  /// mode to meet their deadline.
  std::int64_t degraded = 0;
  /// Queries whose final outcome missed its deadline: shed while
  /// waiting, skipped by the requeue policy because the deadline had
  /// already passed, or tripped by the wall-clock execution budget.
  std::int64_t deadline_missed = 0;
  /// Executions the serve-wide cancellation token aborted (materialized
  /// serving only; outcomes carry kCancelled).
  std::int64_t cancelled = 0;
};

/// Run-level serving metrics: per-stream stats, their aggregate, and the
/// fairness/queue signals of the schedule.
struct ServeMetrics {
  std::vector<StreamServeStats> streams;  ///< index = stream id
  StreamServeStats total;
  /// Jain fairness index over the streams' weight-normalized completed
  /// work x_s = work_s / weight_s: (sum x)^2 / (n * sum x^2). 1.0 =
  /// every stream got exactly its weighted share, 1/n = one stream took
  /// everything. Streams that submitted nothing are excluded.
  double jain_fairness = 1.0;
  std::int64_t makespan_vt = 0;
  double mean_queue_depth = 0;
  std::int64_t queue_high_water = 0;
  double backpressure_fraction = 0;
  std::int64_t idle_while_backlogged_vt = 0;
};

/// Deterministic virtual service demand of a planned query: the expected
/// hit rows under the uniformity assumption plus one unit per processed
/// fragment (covered fragments still cost their O(1) summary lookup).
/// Derived from the plan alone, so the scheduler's timeline never depends
/// on execution timing.
std::int64_t VirtualDemand(const QueryPlan& plan);

/// Virtual service demand of the same plan executed in degraded
/// covered-only mode: one summary-lookup unit per fully-covered
/// fragment, residual scans skipped entirely. Always <= VirtualDemand
/// and >= 1, so degradation strictly shrinks a query's footprint.
std::int64_t CoveredDemand(const QueryPlan& plan);

/// The open-loop multi-user scheduler: admits an arrival trace into
/// bounded per-stream queues and dispatches onto `num_workers` virtual
/// servers under the configured policy. Run() is single-threaded and
/// purely virtual-time — the returned schedule fixes admission, dispatch
/// order and all latency metrics deterministically; real execution (see
/// Warehouse::Serve) only replays the dispatch order onto the thread
/// pool.
class QueryScheduler {
 public:
  /// `config.num_workers` must be resolved (>= 1) by the caller.
  explicit QueryScheduler(ServingConfig config);

  const ServingConfig& config() const { return config_; }

  /// Schedules `arrivals` (sorted by vt) with `demands[i]` work units for
  /// arrival i. `covered_demands` (empty, or one entry per arrival) gives
  /// each query's degraded covered-only demand — required for
  /// OverloadPolicy::kDegrade to rescue an expiring query; without it
  /// every expiry sheds. Deterministic: same inputs, same schedule.
  ServeSchedule Run(std::span<const Arrival> arrivals,
                    std::span<const std::int64_t> demands,
                    std::span<const std::int64_t> covered_demands = {}) const;

 private:
  ServingConfig config_;
};

/// Derives the run metrics from a schedule; `arrivals` must be the trace
/// the schedule was computed from (rejected/unserved attribution needs
/// the stream of every arrival).
ServeMetrics ComputeServeMetrics(const ServeSchedule& schedule,
                                 std::span<const Arrival> arrivals,
                                 const ServingConfig& config);

}  // namespace mdw

#endif  // MDW_SCHED_QUERY_SCHEDULER_H_
