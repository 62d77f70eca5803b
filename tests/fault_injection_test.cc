// Chaos tests of the fault-tolerant paged storage path: a warehouse
// whose page reads fail, truncate, slow down or corrupt on a seeded
// deterministic schedule must keep the contract of ISSUE/ARCHITECTURE's
// failure model — every query either returns the bit-identical aggregate
// of a fault-free run or a typed error with no aggregate, one query's
// failure never poisons another, the process never dies, serial runs
// reproduce counter-for-counter, and the serving requeue budget turns
// transient failures back into answers without touching the virtual-time
// schedule.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/mini_warehouse.h"
#include "core/warehouse.h"
#include "fragment/fragmentation.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"
#include "sched/query_scheduler.h"
#include "storage/io_fault.h"
#include "storage/segment_store.h"

namespace mdw {
namespace {

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

// The reduced APB-1 sweep of the paged-storage tests: covered, residual,
// unsupported, multi-fragment and IN-list shapes.
std::vector<StarQuery> QuerySweep() {
  std::vector<StarQuery> queries;
  queries.push_back(apb1_queries::OneMonthOneGroup(3, 7));
  queries.push_back(apb1_queries::OneMonth(5));
  queries.push_back(apb1_queries::OneQuarter(2));
  queries.push_back(apb1_queries::OneCode(30));
  queries.push_back(apb1_queries::OneCodeOneMonth(30, 3));
  queries.push_back(apb1_queries::OneStore(17));
  queries.push_back(apb1_queries::OneGroupOneStore(7, 17));
  queries.push_back(StarQuery("IN_LIST", {{kApb1Product, 5, {1, 2, 50}},
                                          {kApb1Time, 2, {0, 6}}}));
  return queries;
}

class TempDir {
 public:
  TempDir() {
    const char* base = std::getenv("TEST_TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/mdw_fault_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* got = ::mkdtemp(buf.data());
    EXPECT_NE(got, nullptr);
    path_ = got != nullptr ? got : tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Warehouse MakeFaulty(int shards, int workers, std::string storage_path,
                     storage::FaultPlan fault,
                     storage::StorageRetryPolicy retry = {},
                     bool prefetch = true) {
  WarehouseConfig cfg{.schema = MakeTinyApb1Schema()};
  cfg.fragmentation = MonthGroup();
  cfg.backend = BackendKind::kMaterialized;
  cfg.seed = 42;
  cfg.num_workers = workers;
  cfg.num_shards = shards;
  cfg.storage_path = std::move(storage_path);
  cfg.storage_prefetch = prefetch;
  cfg.storage_retry = retry;
  cfg.storage_fault = std::move(fault);
  return Warehouse(std::move(cfg));
}

/// The probabilistic plan of the chaos sweep: reads fail, truncate and
/// corrupt at `rate` each, on a fixed seed.
storage::FaultPlan ChaosPlan(double rate) {
  storage::FaultPlan plan;
  plan.seed = 0xC0FFEE;
  plan.eio_rate = rate;
  plan.short_read_rate = rate / 4;
  plan.corrupt_rate = rate;
  return plan;
}

/// Per-query record of a faulty run, for determinism comparisons.
struct RunRecord {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::optional<MiniWarehouse::AggregateResult> aggregate;
  std::int64_t io_errors = 0;
  std::int64_t io_retries = 0;
  std::int64_t checksum_failures = 0;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

RunRecord Record(const QueryOutcome& out) {
  return RunRecord{out.status.ok(),    out.status.code(),
                   out.aggregate,      out.io_errors,
                   out.io_retries,     out.checksum_failures};
}

// ---------------------------------------------------------------------------
// The chaos sweep (the PR's acceptance gate)

TEST(FaultInjectionTest, ChaosSweepNeverCrashesAndNeverLies) {
  // Fault-free ground truth: aggregates are shard/worker-invariant.
  TempDir clean_dir;
  const Warehouse clean = MakeFaulty(1, 1, clean_dir.path(), {});
  std::vector<QueryOutcome> truth;
  for (const StarQuery& q : QuerySweep()) truth.push_back(clean.Execute(q));

  for (const double rate : {0.0, 1e-3, 1e-1}) {
    for (const int shards : {1, 4}) {
      TempDir dir;
      for (const int workers : {1, 8}) {
        const Warehouse faulty =
            MakeFaulty(shards, workers, dir.path(), ChaosPlan(rate),
                       storage::StorageRetryPolicy{/*max_attempts=*/2});
        const std::vector<StarQuery> sweep = QuerySweep();
        for (std::size_t i = 0; i < sweep.size(); ++i) {
          const QueryOutcome out = faulty.Execute(sweep[i]);
          if (out.status.ok()) {
            // A query that survived its faults must be bit-identical to
            // the fault-free answer — retried/re-read pages may not
            // change a single bit.
            ASSERT_TRUE(out.aggregate.has_value()) << sweep[i].name();
            EXPECT_EQ(*out.aggregate, *truth[i].aggregate) << sweep[i].name();
            EXPECT_EQ(out.rows_scanned, truth[i].rows_scanned);
            EXPECT_EQ(out.rows_summarized, truth[i].rows_summarized);
          } else {
            // A query that did not survive fails typed and keeps its
            // untrustworthy sums to itself.
            EXPECT_FALSE(out.aggregate.has_value()) << sweep[i].name();
            EXPECT_TRUE(out.status.code() == StatusCode::kIoError ||
                        out.status.code() == StatusCode::kCorruption)
                << sweep[i].name() << ": " << out.status.ToString();
            EXPECT_GT(out.io_errors + out.checksum_failures, 0)
                << sweep[i].name();
          }
        }
        const storage::FaultInjector* injector =
            faulty.materialized()->paged_store()->fault_injector();
        if (rate == 0.0) {
          // An empty plan installs no injector at all: the fault-free
          // configuration pays zero overhead and stays byte-for-byte the
          // plain paged path (its parity is asserted above).
          EXPECT_EQ(injector, nullptr);
        } else {
          ASSERT_NE(injector, nullptr);
          EXPECT_GT(injector->stats().page_reads, 0);
        }
      }
      if (rate == 1e-1 && shards == 4) {
        // At the heavy rate the plan must actually have bitten — the
        // sweep above proved survival, not absence of faults. (The
        // injection schedule is seed-deterministic, so this is a fixed
        // fact of the test, not a flaky probability.)
        const Warehouse probe =
            MakeFaulty(4, 1, dir.path(), ChaosPlan(rate),
                       storage::StorageRetryPolicy{/*max_attempts=*/2});
        std::int64_t faults_seen = 0;
        for (const StarQuery& q : QuerySweep()) {
          const QueryOutcome out = probe.Execute(q);
          faults_seen += out.io_errors + out.checksum_failures;
        }
        EXPECT_GT(faults_seen, 0);
      }
    }
  }
}

TEST(FaultInjectionTest, SerialRunsAreCounterForCounterDeterministic) {
  TempDir dir;
  const auto run_once = [&] {
    const Warehouse faulty =
        MakeFaulty(4, /*workers=*/1, dir.path(), ChaosPlan(1e-1),
                   storage::StorageRetryPolicy{/*max_attempts=*/2});
    std::vector<RunRecord> records;
    for (const StarQuery& q : QuerySweep()) {
      records.push_back(Record(faulty.Execute(q)));
    }
    return records;
  };
  const std::vector<RunRecord> first = run_once();
  const std::vector<RunRecord> second = run_once();  // segments reused
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Failure isolation

TEST(FaultInjectionTest, OneFailedQueryDoesNotPoisonTheNext) {
  TempDir dir;
  TempDir clean_dir;
  const Warehouse clean = MakeFaulty(1, 1, clean_dir.path(), {});
  // The very first page read of the store corrupts, once. No retries, no
  // prefetch: the damage lands on the first query's demand pin.
  storage::FaultPlan plan;
  plan.scripted.push_back({/*file_id=*/-1, /*page=*/-1,
                           storage::FaultKind::kCorruption, /*count=*/1});
  const Warehouse faulty = MakeFaulty(1, /*workers=*/1, dir.path(), plan,
                                      /*retry=*/{}, /*prefetch=*/false);
  const StarQuery q = apb1_queries::OneStore(17);

  const QueryOutcome hurt = faulty.Execute(q);
  ASSERT_FALSE(hurt.status.ok());
  EXPECT_EQ(hurt.status.code(), StatusCode::kCorruption);
  EXPECT_FALSE(hurt.aggregate.has_value());
  EXPECT_EQ(hurt.checksum_failures, 1);

  // The corrupted frame was never cached, the scripted fault is spent:
  // the exact same query now answers correctly — and so does an
  // unrelated one.
  const QueryOutcome healed = faulty.Execute(q);
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  EXPECT_EQ(*healed.aggregate, *clean.Execute(q).aggregate);
  EXPECT_EQ(healed.checksum_failures, 0);
  const QueryOutcome other = faulty.Execute(apb1_queries::OneMonth(5));
  ASSERT_TRUE(other.status.ok());
  EXPECT_EQ(*other.aggregate, *clean.Execute(apb1_queries::OneMonth(5)).aggregate);
}

TEST(FaultInjectionTest, RetryPolicyAbsorbsTransientFaultsInsideTheQuery) {
  TempDir dir;
  TempDir clean_dir;
  const Warehouse clean = MakeFaulty(1, 1, clean_dir.path(), {});
  storage::FaultPlan plan;
  plan.scripted.push_back({/*file_id=*/-1, /*page=*/-1,
                           storage::FaultKind::kEio, /*count=*/1});
  const Warehouse faulty =
      MakeFaulty(1, /*workers=*/1, dir.path(), plan,
                 storage::StorageRetryPolicy{/*max_attempts=*/2},
                 /*prefetch=*/false);
  const StarQuery q = apb1_queries::OneStore(17);
  const QueryOutcome out = faulty.Execute(q);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(*out.aggregate, *clean.Execute(q).aggregate);
  EXPECT_EQ(out.io_errors, 1);   // the attempt that failed
  EXPECT_EQ(out.io_retries, 1);  // the attempt that healed it
}

// ---------------------------------------------------------------------------
// Serving under faults

std::vector<Arrival> SweepArrivals() {
  std::vector<Arrival> arrivals;
  std::int64_t vt = 0;
  int stream = 0;
  for (StarQuery& q : QuerySweep()) {
    arrivals.push_back(Arrival{vt, stream, std::move(q)});
    vt += 10;
    stream = 1 - stream;
  }
  return arrivals;
}

TEST(FaultInjectionTest, ServeRequeuesTransientFailuresInPlace) {
  storage::FaultPlan one_eio;
  one_eio.scripted.push_back({/*file_id=*/-1, /*page=*/-1,
                              storage::FaultKind::kEio, /*count=*/1});
  ServingConfig scfg;
  scfg.num_workers = 1;

  // Without a requeue budget the transient fault costs one query.
  {
    TempDir dir;
    const Warehouse wh = MakeFaulty(1, /*workers=*/1, dir.path(), one_eio,
                                    /*retry=*/{}, /*prefetch=*/false);
    scfg.max_requeues = 0;
    const BatchOutcome batch = wh.Serve(SweepArrivals(), scfg);
    ASSERT_TRUE(batch.serving.has_value());
    EXPECT_EQ(batch.serving->total.failed, 1);
    EXPECT_EQ(batch.serving->total.requeued, 0);
    int failed = 0;
    for (const QueryOutcome& out : batch.queries) {
      if (!out.status.ok()) {
        ++failed;
        EXPECT_FALSE(out.aggregate.has_value());
      }
    }
    EXPECT_EQ(failed, 1);
  }

  // With a budget of one, the re-execution inside the dispatch slot
  // clears it: every query answers; the schedule records the requeue.
  {
    TempDir dir;
    const Warehouse wh = MakeFaulty(1, /*workers=*/1, dir.path(), one_eio,
                                    /*retry=*/{}, /*prefetch=*/false);
    scfg.max_requeues = 1;
    const BatchOutcome batch = wh.Serve(SweepArrivals(), scfg);
    ASSERT_TRUE(batch.serving.has_value());
    EXPECT_EQ(batch.serving->total.failed, 0);
    EXPECT_EQ(batch.serving->total.requeued, 1);
    int requeued = 0;
    for (const QueryOutcome& out : batch.queries) {
      EXPECT_TRUE(out.status.ok()) << out.status.ToString();
      ASSERT_TRUE(out.aggregate.has_value());
      if (out.requeues > 0) {
        ++requeued;
        EXPECT_EQ(out.requeues, 1);
        EXPECT_EQ(out.io_errors, 1);  // the failed first execution's read
      }
    }
    EXPECT_EQ(requeued, 1);
    // Per-stream accounting sums to the totals.
    std::int64_t stream_requeues = 0;
    for (const auto& s : batch.serving->streams) stream_requeues += s.requeued;
    EXPECT_EQ(stream_requeues, 1);
  }

  // On a sharded store the failed attempt's I/O and failure counters land
  // in the shard records as well as the totals, so a requeued outcome's
  // shards still sum to its counters.
  {
    TempDir dir;
    const Warehouse wh = MakeFaulty(4, /*workers=*/1, dir.path(), one_eio,
                                    /*retry=*/{}, /*prefetch=*/false);
    scfg.max_requeues = 1;
    const BatchOutcome batch = wh.Serve(SweepArrivals(), scfg);
    ASSERT_TRUE(batch.serving.has_value());
    EXPECT_EQ(batch.serving->total.failed, 0);
    EXPECT_EQ(batch.serving->total.requeued, 1);
    int requeued = 0;
    for (const QueryOutcome& out : batch.queries) {
      EXPECT_TRUE(out.status.ok()) << out.status.ToString();
      ASSERT_EQ(out.shards.size(), 4u);
      MiniWarehouse::ExecStats merged;
      for (const auto& shard : out.shards) merged.Merge(shard);
      EXPECT_EQ(merged, static_cast<const MiniWarehouse::ExecStats&>(out))
          << "requeues=" << out.requeues;
      if (out.requeues > 0) {
        ++requeued;
        EXPECT_EQ(out.io_errors, 1);
      }
    }
    EXPECT_EQ(requeued, 1);
  }
}

TEST(FaultInjectionTest, InjectorStatsAccountForEveryDecision) {
  TempDir dir;
  storage::FaultPlan plan = ChaosPlan(1e-1);
  plan.latency_rate = 0.05;  // exercises the no-error latency kind too
  plan.latency_us = 1;
  const Warehouse faulty =
      MakeFaulty(1, /*workers=*/1, dir.path(), plan,
                 storage::StorageRetryPolicy{/*max_attempts=*/3});
  for (const StarQuery& q : QuerySweep()) (void)faulty.Execute(q);
  const storage::FaultInjector* injector =
      faulty.materialized()->paged_store()->fault_injector();
  ASSERT_NE(injector, nullptr);
  const storage::FaultStats stats = injector->stats();
  EXPECT_GT(stats.page_reads, 0);
  // Every injected failure the pool observed is one the injector issued.
  // (The pool can see FEWER corruptions than issued when a prefetch run
  // fails wholesale first, never fewer EIO-class faults than page_reads
  // bounds allow — keep the invariant directional.)
  EXPECT_LE(stats.injected_eio + stats.injected_short_reads +
                stats.injected_corruptions + stats.injected_latency,
            stats.page_reads);
}

}  // namespace
}  // namespace mdw
