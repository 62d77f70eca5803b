#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/warehouse.h"
#include "sched/query_scheduler.h"
#include "schema/apb1.h"
#include "workload/arrival_generator.h"

namespace mdw {
namespace {

constexpr std::uint64_t kSeed = 42;

// ---------------------------------------------------------------------------
// Virtual-time engine tests: the scheduler never looks at the query beyond
// its demand, so a placeholder query keeps the traces terse.

Arrival At(std::int64_t vt, int stream) {
  return Arrival{vt, stream, StarQuery("synthetic", {})};
}

ServingConfig Config(SchedPolicy policy, int workers,
                     std::int64_t capacity = 0, std::int64_t horizon = 0) {
  ServingConfig config;
  config.policy = policy;
  config.num_workers = workers;
  config.queue_capacity = capacity;
  config.horizon_vt = horizon;
  return config;
}

/// A saturating trace: `per_stream` queries per stream, all at vt 0,
/// interleaved 0,1,2,0,1,2,... so FCFS serves the streams round-robin.
std::vector<Arrival> SaturatedTrace(int streams, int per_stream) {
  std::vector<Arrival> arrivals;
  for (int i = 0; i < per_stream; ++i) {
    for (int s = 0; s < streams; ++s) arrivals.push_back(At(0, s));
  }
  return arrivals;
}

std::vector<std::int64_t> UniformDemands(std::size_t n, std::int64_t d) {
  return std::vector<std::int64_t>(n, d);
}

/// Independent replay of the schedule's occupancy: at every event instant,
/// a query waits while arrival_vt <= t < dispatch_vt and occupies a server
/// while dispatch_vt <= t < completion_vt. Returns the virtual time during
/// which a server idled although a query waited (0 = work-conserving).
std::int64_t ReplayIdleWhileBacklogged(const ServeSchedule& schedule,
                                       int workers) {
  std::vector<std::int64_t> events;
  for (const auto& q : schedule.admitted) {
    events.push_back(q.arrival_vt);
    if (q.served) {
      events.push_back(q.dispatch_vt);
      events.push_back(q.completion_vt);
    }
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  std::int64_t idle_backlogged = 0;
  for (std::size_t e = 0; e + 1 < events.size(); ++e) {
    const std::int64_t t = events[e], dt = events[e + 1] - t;
    int busy = 0, waiting = 0;
    for (const auto& q : schedule.admitted) {
      if (q.served && q.dispatch_vt <= t && t < q.completion_vt) ++busy;
      if (q.arrival_vt <= t && (!q.served || t < q.dispatch_vt)) ++waiting;
    }
    if (waiting > 0 && busy < workers) idle_backlogged += dt;
  }
  return idle_backlogged;
}

TEST(QuerySchedulerTest, ExactlyOnceAdmissionAndDenseSequences) {
  // Overloaded single server with a tight queue: every arrival must land
  // exactly once in admitted or rejected, with dense sequence numbers.
  std::vector<Arrival> arrivals;
  Rng rng(kSeed);
  std::int64_t vt = 0;
  for (int i = 0; i < 200; ++i) {
    vt += rng.Uniform(0, 30);
    arrivals.push_back(At(vt, static_cast<int>(rng.Uniform(0, 3))));
  }
  const auto demands = UniformDemands(arrivals.size(), 50);
  const QueryScheduler scheduler(Config(SchedPolicy::kFcfs, 1, 4));
  const ServeSchedule schedule = scheduler.Run(arrivals, demands);

  EXPECT_EQ(schedule.admitted.size() + schedule.rejected.size(),
            arrivals.size());
  std::set<std::int64_t> seen;
  for (const auto& q : schedule.admitted) seen.insert(q.arrival_index);
  for (std::int64_t r : schedule.rejected) {
    EXPECT_TRUE(seen.insert(r).second) << "arrival " << r << " twice";
  }
  EXPECT_EQ(seen.size(), arrivals.size());

  // enqueue_seq dense and ascending in admission order; dispatch_seq dense
  // over the served subset.
  std::vector<std::int64_t> dispatch_seqs;
  for (std::size_t i = 0; i < schedule.admitted.size(); ++i) {
    const auto& q = schedule.admitted[i];
    EXPECT_EQ(q.enqueue_seq, static_cast<std::int64_t>(i));
    EXPECT_EQ(arrivals[static_cast<std::size_t>(q.arrival_index)].stream,
              q.stream);
    if (q.served) {
      EXPECT_GE(q.dispatch_vt, q.arrival_vt);
      EXPECT_EQ(q.completion_vt, q.dispatch_vt + q.demand);
      dispatch_seqs.push_back(q.dispatch_seq);
    } else {
      EXPECT_EQ(q.dispatch_seq, -1);
    }
  }
  std::sort(dispatch_seqs.begin(), dispatch_seqs.end());
  for (std::size_t i = 0; i < dispatch_seqs.size(); ++i) {
    EXPECT_EQ(dispatch_seqs[i], static_cast<std::int64_t>(i));
  }
  EXPECT_TRUE(std::is_sorted(schedule.rejected.begin(),
                             schedule.rejected.end()));
}

TEST(QuerySchedulerTest, FcfsDispatchesInAdmissionOrder) {
  std::vector<Arrival> arrivals;
  Rng rng(kSeed + 1);
  std::int64_t vt = 0;
  for (int i = 0; i < 100; ++i) {
    vt += rng.Uniform(0, 20);
    arrivals.push_back(At(vt, static_cast<int>(rng.Uniform(0, 7))));
  }
  std::vector<std::int64_t> demands;
  for (int i = 0; i < 100; ++i) demands.push_back(10 + rng.Uniform(0, 90));
  const QueryScheduler scheduler(Config(SchedPolicy::kFcfs, 1));
  const ServeSchedule schedule = scheduler.Run(arrivals, demands);

  ASSERT_EQ(schedule.admitted.size(), arrivals.size());
  for (const auto& q : schedule.admitted) {
    ASSERT_TRUE(q.served);
    // Single server, global FCFS: dispatch order IS admission order.
    EXPECT_EQ(q.dispatch_seq, q.enqueue_seq);
  }
}

TEST(QuerySchedulerTest, CreditConvergesToWeightedSharesWhereFcfsDoesNot) {
  // Acceptance criterion: under saturation (every stream backlogged for
  // the whole measured window), credit with weights {1,2,4} completes
  // work within 10% of the weight ratios; FCFS on the same trace does not.
  const auto arrivals = SaturatedTrace(3, 400);
  const auto demands = UniformDemands(arrivals.size(), 100);

  ServingConfig credit = Config(SchedPolicy::kCredit, 2, 0, 20000);
  credit.weights = {1.0, 2.0, 4.0};
  const ServeSchedule credit_schedule =
      QueryScheduler(credit).Run(arrivals, demands);
  const ServeMetrics credit_metrics =
      ComputeServeMetrics(credit_schedule, arrivals, credit);

  ServingConfig fcfs = Config(SchedPolicy::kFcfs, 2, 0, 20000);
  fcfs.weights = {1.0, 2.0, 4.0};  // FCFS ignores weights
  const ServeMetrics fcfs_metrics = ComputeServeMetrics(
      QueryScheduler(fcfs).Run(arrivals, demands), arrivals, fcfs);

  ASSERT_EQ(credit_metrics.streams.size(), 3u);
  const double w0 = static_cast<double>(credit_metrics.streams[0].work);
  const double w1 = static_cast<double>(credit_metrics.streams[1].work);
  const double w2 = static_cast<double>(credit_metrics.streams[2].work);
  ASSERT_GT(w0, 0);
  // Every stream must still be backlogged at the horizon, else the shares
  // measure drain, not policy.
  for (const auto& s : credit_metrics.streams) {
    EXPECT_LT(s.completed, s.submitted);
  }
  EXPECT_NEAR(w1 / w0, 2.0, 0.2);
  EXPECT_NEAR(w2 / w0, 4.0, 0.4);
  // Weight-normalized Jain index: ~1 when shares track weights.
  EXPECT_GT(credit_metrics.jain_fairness, 0.98);

  // FCFS round-robins the interleaved trace: equal work per stream, far
  // outside 10% of the 1:2:4 target, and weight-normalized Jain dips.
  const double f0 = static_cast<double>(fcfs_metrics.streams[0].work);
  const double f2 = static_cast<double>(fcfs_metrics.streams[2].work);
  EXPECT_LT(f2 / f0, 1.5);
  EXPECT_LT(fcfs_metrics.jain_fairness, 0.85);
}

TEST(QuerySchedulerTest, AdmissionControlShedsWhenQueueFull) {
  // One server, capacity 2: of five same-instant arrivals one goes
  // straight to the server, two queue, two are shed. A later arrival
  // (after a completion drained the queue) is admitted again.
  std::vector<Arrival> arrivals = {At(0, 0), At(0, 1), At(0, 2),
                                   At(0, 3), At(0, 4), At(150, 0)};
  const auto demands = UniformDemands(arrivals.size(), 100);
  const QueryScheduler scheduler(Config(SchedPolicy::kFcfs, 1, 2));
  const ServeSchedule schedule = scheduler.Run(arrivals, demands);

  ASSERT_EQ(schedule.rejected.size(), 2u);
  EXPECT_EQ(schedule.rejected[0], 3);
  EXPECT_EQ(schedule.rejected[1], 4);
  ASSERT_EQ(schedule.admitted.size(), 4u);
  EXPECT_EQ(schedule.makespan_vt, 400);
  EXPECT_EQ(schedule.queue_high_water, 2);
  // Queue at capacity over [0,100) and [150,200) of the 400-tick run.
  EXPECT_DOUBLE_EQ(schedule.backpressure_fraction, 150.0 / 400.0);
  EXPECT_DOUBLE_EQ(schedule.mean_queue_depth,
                   (2 * 100 + 1 * 50 + 2 * 50 + 1 * 100) / 400.0);
}

TEST(QuerySchedulerTest, SameInstantBurstBypassesQueueOntoFreeServers) {
  // Capacity bounds WAITING queries only: with two free servers, a burst
  // of three fits (two in service, one queued at capacity 1); the fourth
  // is shed.
  std::vector<Arrival> arrivals = {At(0, 0), At(0, 1), At(0, 2), At(0, 3)};
  const auto demands = UniformDemands(arrivals.size(), 100);
  const QueryScheduler scheduler(Config(SchedPolicy::kFcfs, 2, 1));
  const ServeSchedule schedule = scheduler.Run(arrivals, demands);

  ASSERT_EQ(schedule.rejected.size(), 1u);
  EXPECT_EQ(schedule.rejected[0], 3);
  EXPECT_EQ(schedule.ServedCount(), 3);
  // The first two dispatch immediately.
  EXPECT_EQ(schedule.admitted[0].dispatch_vt, 0);
  EXPECT_EQ(schedule.admitted[1].dispatch_vt, 0);
  EXPECT_EQ(schedule.admitted[2].dispatch_vt, 100);
}

TEST(QuerySchedulerTest, WorkConservingUnderBothPolicies) {
  std::vector<Arrival> arrivals;
  Rng rng(kSeed + 2);
  std::int64_t vt = 0;
  std::vector<std::int64_t> demands;
  for (int i = 0; i < 300; ++i) {
    vt += rng.Uniform(0, 40);
    arrivals.push_back(At(vt, static_cast<int>(rng.Uniform(0, 5))));
    demands.push_back(5 + rng.Uniform(0, 120));
  }
  for (const SchedPolicy policy : {SchedPolicy::kFcfs, SchedPolicy::kCredit}) {
    ServingConfig config = Config(policy, 3);
    config.weights = {1.0, 3.0, 1.0, 2.0, 1.0, 1.0};
    const ServeSchedule schedule =
        QueryScheduler(config).Run(arrivals, demands);
    EXPECT_EQ(schedule.idle_while_backlogged_vt, 0)
        << ToString(policy) << " left a server idle while backlogged";
    // Independent replay of the invariant from the schedule itself.
    EXPECT_EQ(ReplayIdleWhileBacklogged(schedule, 3), 0) << ToString(policy);
  }
}

TEST(QuerySchedulerTest, DeterministicReplay) {
  std::vector<Arrival> arrivals;
  Rng rng(kSeed + 3);
  std::int64_t vt = 0;
  std::vector<std::int64_t> demands;
  for (int i = 0; i < 250; ++i) {
    vt += rng.Uniform(0, 25);
    arrivals.push_back(At(vt, static_cast<int>(rng.Uniform(0, 9))));
    demands.push_back(1 + rng.Uniform(0, 200));
  }
  ServingConfig config = Config(SchedPolicy::kCredit, 4, 16, 3000);
  config.weights = {4.0, 1.0, 2.0};
  const QueryScheduler scheduler(config);
  const ServeSchedule a = scheduler.Run(arrivals, demands);
  const ServeSchedule b = scheduler.Run(arrivals, demands);

  ASSERT_EQ(a.admitted.size(), b.admitted.size());
  for (std::size_t i = 0; i < a.admitted.size(); ++i) {
    EXPECT_EQ(a.admitted[i].arrival_index, b.admitted[i].arrival_index);
    EXPECT_EQ(a.admitted[i].served, b.admitted[i].served);
    EXPECT_EQ(a.admitted[i].dispatch_seq, b.admitted[i].dispatch_seq);
    EXPECT_EQ(a.admitted[i].dispatch_vt, b.admitted[i].dispatch_vt);
    EXPECT_EQ(a.admitted[i].completion_vt, b.admitted[i].completion_vt);
  }
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.makespan_vt, b.makespan_vt);
  EXPECT_DOUBLE_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_DOUBLE_EQ(a.backpressure_fraction, b.backpressure_fraction);
}

TEST(QuerySchedulerTest, HorizonMarksWaitingQueriesUnserved) {
  const std::vector<Arrival> arrivals = {At(0, 0), At(0, 0), At(0, 0),
                                         At(0, 0), At(0, 0)};
  const auto demands = UniformDemands(arrivals.size(), 100);
  const QueryScheduler scheduler(Config(SchedPolicy::kFcfs, 1, 0, 250));
  const ServeSchedule schedule = scheduler.Run(arrivals, demands);

  // Dispatches at vt 0, 100, 200; vt 300 is past the horizon.
  ASSERT_EQ(schedule.admitted.size(), 5u);
  EXPECT_EQ(schedule.ServedCount(), 3);
  EXPECT_FALSE(schedule.admitted[3].served);
  EXPECT_FALSE(schedule.admitted[4].served);
  EXPECT_EQ(schedule.makespan_vt, 300);

  ServingConfig config = Config(SchedPolicy::kFcfs, 1, 0, 250);
  const ServeMetrics metrics =
      ComputeServeMetrics(schedule, arrivals, config);
  EXPECT_EQ(metrics.total.submitted, 5);
  EXPECT_EQ(metrics.total.admitted, 5);
  EXPECT_EQ(metrics.total.completed, 3);
}

TEST(QuerySchedulerTest, PerStreamMetricsSumToTotals) {
  std::vector<Arrival> arrivals;
  Rng rng(kSeed + 4);
  std::int64_t vt = 0;
  std::vector<std::int64_t> demands;
  for (int i = 0; i < 400; ++i) {
    vt += rng.Uniform(0, 15);
    arrivals.push_back(At(vt, static_cast<int>(rng.Uniform(0, 6))));
    demands.push_back(10 + rng.Uniform(0, 80));
  }
  ServingConfig config = Config(SchedPolicy::kCredit, 2, 8);
  config.weights = {1.0, 2.0};
  const ServeSchedule schedule =
      QueryScheduler(config).Run(arrivals, demands);
  const ServeMetrics metrics =
      ComputeServeMetrics(schedule, arrivals, config);

  ASSERT_EQ(metrics.streams.size(), 7u);
  StreamServeStats sum;
  for (const auto& s : metrics.streams) {
    sum.submitted += s.submitted;
    sum.admitted += s.admitted;
    sum.rejected += s.rejected;
    sum.completed += s.completed;
    sum.work += s.work;
  }
  EXPECT_EQ(sum.submitted, static_cast<std::int64_t>(arrivals.size()));
  EXPECT_EQ(sum.submitted, metrics.total.submitted);
  EXPECT_EQ(sum.admitted, metrics.total.admitted);
  EXPECT_EQ(sum.rejected, metrics.total.rejected);
  EXPECT_EQ(sum.rejected,
            static_cast<std::int64_t>(schedule.rejected.size()));
  EXPECT_EQ(sum.completed, metrics.total.completed);
  EXPECT_EQ(sum.completed, schedule.ServedCount());
  EXPECT_EQ(sum.work, metrics.total.work);
  EXPECT_GE(metrics.jain_fairness, 1.0 / 7.0);
  EXPECT_LE(metrics.jain_fairness, 1.0);
  EXPECT_GT(metrics.total.p50_response_vt, 0);
  EXPECT_LE(metrics.total.p50_response_vt, metrics.total.p95_response_vt);
  EXPECT_LE(metrics.total.p95_response_vt, metrics.total.p99_response_vt);
}

// ---------------------------------------------------------------------------
// Serving through the façade: virtual-time schedule + real execution.

Warehouse TinyMaterialized(int num_workers) {
  return Warehouse({.schema = MakeTinyApb1Schema(),
                    .fragmentation = {{kApb1Time, 2}, {kApb1Product, 3}},
                    .backend = BackendKind::kMaterialized,
                    .seed = kSeed,
                    .num_workers = num_workers});
}

/// A contended trace over the tiny schema: 6 streams, arrivals far faster
/// than service, so admission control and the policies all engage.
std::vector<Arrival> TinyTrace(const StarSchema* schema, int count) {
  ArrivalConfig config;
  config.num_streams = 6;
  config.mean_interarrival_vt = 40.0;
  config.stream_skew_theta = 0.4;
  config.mix = {QueryType::k1Month1Group, QueryType::k1Month,
                QueryType::k1Quarter, QueryType::k1Group1Store};
  config.seed = kSeed;
  return ArrivalGenerator(schema, config).Generate(count);
}

TEST(ServingTest, OutcomesBitIdenticalToDirectExecuteAcrossWorkerCounts) {
  // The acceptance bar: every admitted-and-served query's outcome equals
  // a direct Execute() of the same query, at every worker count, and the
  // outcomes agree across worker counts bit for bit.
  ServingConfig config;
  config.policy = SchedPolicy::kCredit;
  config.num_workers = 4;  // pinned: the schedule must not vary
  config.queue_capacity = 8;
  config.weights = {1.0, 2.0, 4.0};

  std::vector<std::vector<QueryOutcome>> outcomes_by_workers;
  for (const int workers : {1, 2, 8}) {
    const Warehouse wh = TinyMaterialized(workers);
    const auto arrivals = TinyTrace(&wh.schema(), 48);
    ServeSchedule schedule;
    const BatchOutcome batch = wh.Serve(arrivals, config, &schedule);

    ASSERT_EQ(batch.queries.size(),
              static_cast<std::size_t>(schedule.ServedCount()));
    EXPECT_FALSE(schedule.rejected.empty())
        << "trace too light to exercise admission control";
    std::size_t slot = 0;
    for (const auto& q : schedule.admitted) {
      if (!q.served) continue;
      const auto& arrival =
          arrivals[static_cast<std::size_t>(q.arrival_index)];
      const QueryOutcome direct = wh.Execute(arrival.query);
      EXPECT_EQ(batch.queries[slot], direct)
          << "served outcome " << slot << " diverged from direct Execute "
          << "with " << workers << " workers";
      ++slot;
    }
    outcomes_by_workers.push_back(batch.queries);
  }
  ASSERT_EQ(outcomes_by_workers.size(), 3u);
  EXPECT_EQ(outcomes_by_workers[0], outcomes_by_workers[1]);
  EXPECT_EQ(outcomes_by_workers[0], outcomes_by_workers[2]);
}

TEST(ServingTest, ServingMetricsIdenticalAcrossWorkerCounts) {
  // Virtual-time metrics depend only on (trace, config): pinning the
  // config's worker count makes every latency/fairness figure identical
  // no matter how many real threads execute the run.
  ServingConfig config;
  config.policy = SchedPolicy::kFcfs;
  config.num_workers = 2;
  config.queue_capacity = 12;

  std::vector<ServeMetrics> metrics;
  for (const int workers : {1, 2, 8}) {
    const Warehouse wh = TinyMaterialized(workers);
    const auto arrivals = TinyTrace(&wh.schema(), 64);
    const BatchOutcome batch = wh.Serve(arrivals, config);
    ASSERT_TRUE(batch.serving.has_value());
    metrics.push_back(*batch.serving);
  }
  for (std::size_t i = 1; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[0].makespan_vt, metrics[i].makespan_vt);
    EXPECT_EQ(metrics[0].total.completed, metrics[i].total.completed);
    EXPECT_EQ(metrics[0].total.rejected, metrics[i].total.rejected);
    EXPECT_EQ(metrics[0].total.work, metrics[i].total.work);
    EXPECT_DOUBLE_EQ(metrics[0].total.p99_response_vt,
                     metrics[i].total.p99_response_vt);
    EXPECT_DOUBLE_EQ(metrics[0].jain_fairness, metrics[i].jain_fairness);
    EXPECT_DOUBLE_EQ(metrics[0].backpressure_fraction,
                     metrics[i].backpressure_fraction);
    ASSERT_EQ(metrics[0].streams.size(), metrics[i].streams.size());
    for (std::size_t s = 0; s < metrics[0].streams.size(); ++s) {
      EXPECT_EQ(metrics[0].streams[s].completed,
                metrics[i].streams[s].completed);
      EXPECT_DOUBLE_EQ(metrics[0].streams[s].p95_response_vt,
                       metrics[i].streams[s].p95_response_vt);
    }
  }
}

TEST(ServingTest, RejectedArrivalsExecuteNothing) {
  const Warehouse wh = TinyMaterialized(2);
  const auto arrivals = TinyTrace(&wh.schema(), 64);
  ServingConfig config;
  config.policy = SchedPolicy::kFcfs;
  config.num_workers = 1;
  config.queue_capacity = 2;  // aggressive shedding

  ServeSchedule schedule;
  const BatchOutcome batch = wh.Serve(arrivals, config, &schedule);
  EXPECT_GT(schedule.rejected.size(), 0u);
  EXPECT_EQ(batch.queries.size(),
            static_cast<std::size_t>(schedule.ServedCount()));
  // Every served query answered; shed queries produced no outcome.
  for (const auto& outcome : batch.queries) {
    ASSERT_TRUE(outcome.aggregate.has_value());
  }
  ASSERT_TRUE(batch.serving.has_value());
  EXPECT_EQ(batch.serving->total.rejected,
            static_cast<std::int64_t>(schedule.rejected.size()));
}

// ---------------------------------------------------------------------------
// Multi-threaded stress: a thousand-plus streams hammering a small pool.
// Runs under TSan in CI; the sequence accounting proves no query is lost
// or executed twice regardless of thread interleaving.

TEST(SchedulerStressTest, ThousandStreamsSmallPoolSequenceAccounting) {
  const Warehouse wh = TinyMaterialized(4);
  ArrivalConfig gen_config;
  gen_config.num_streams = 1200;
  gen_config.mean_interarrival_vt = 2.0;  // heavy overload
  gen_config.stream_skew_theta = 0.5;
  gen_config.mix = {QueryType::k1Month1Group, QueryType::k1Quarter,
                    QueryType::k1Group1Store};
  gen_config.seed = kSeed;
  const auto arrivals =
      ArrivalGenerator(&wh.schema(), gen_config).Generate(3000);

  ServingConfig config;
  config.policy = SchedPolicy::kCredit;
  config.num_workers = 4;
  config.queue_capacity = 64;

  ServeSchedule schedule;
  const BatchOutcome batch = wh.Serve(arrivals, config, &schedule);

  // Every arrival exactly once across admitted/rejected.
  ASSERT_EQ(schedule.admitted.size() + schedule.rejected.size(),
            arrivals.size());
  std::vector<char> seen(arrivals.size(), 0);
  for (const auto& q : schedule.admitted) {
    ASSERT_EQ(seen[static_cast<std::size_t>(q.arrival_index)], 0);
    seen[static_cast<std::size_t>(q.arrival_index)] = 1;
  }
  for (std::int64_t r : schedule.rejected) {
    ASSERT_EQ(seen[static_cast<std::size_t>(r)], 0);
    seen[static_cast<std::size_t>(r)] = 1;
  }
  EXPECT_GT(schedule.rejected.size(), 0u);

  // Dense dispatch sequence over the served subset; exactly one outcome
  // per served query.
  std::vector<std::int64_t> dispatch_seqs;
  for (const auto& q : schedule.admitted) {
    if (q.served) dispatch_seqs.push_back(q.dispatch_seq);
  }
  std::sort(dispatch_seqs.begin(), dispatch_seqs.end());
  for (std::size_t i = 0; i < dispatch_seqs.size(); ++i) {
    ASSERT_EQ(dispatch_seqs[i], static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(batch.queries.size(), dispatch_seqs.size());
  for (const auto& outcome : batch.queries) {
    EXPECT_TRUE(outcome.aggregate.has_value());
  }

  // Per-stream metric sums equal the batch totals (no drops, no dupes in
  // the attribution either).
  ASSERT_TRUE(batch.serving.has_value());
  const ServeMetrics& metrics = *batch.serving;
  std::int64_t submitted = 0, completed = 0, rejected = 0, work = 0;
  for (const auto& s : metrics.streams) {
    submitted += s.submitted;
    completed += s.completed;
    rejected += s.rejected;
    work += s.work;
  }
  EXPECT_EQ(submitted, static_cast<std::int64_t>(arrivals.size()));
  EXPECT_EQ(completed, metrics.total.completed);
  EXPECT_EQ(completed, static_cast<std::int64_t>(batch.queries.size()));
  EXPECT_EQ(rejected, metrics.total.rejected);
  EXPECT_EQ(work, metrics.total.work);
}

}  // namespace
}  // namespace mdw
