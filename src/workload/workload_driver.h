#ifndef MDW_WORKLOAD_WORKLOAD_DRIVER_H_
#define MDW_WORKLOAD_WORKLOAD_DRIVER_H_

#include <vector>

#include "core/warehouse.h"
#include "sim/metrics.h"
#include "workload/query_generator.h"

namespace mdw {

/// One component of a query mix.
struct WorkloadSpec {
  QueryType type;
  int count = 1;
};

/// Convenience driver matching the paper's experimental procedure: for a
/// single simulation all queries are of the same type with randomly chosen
/// parameters, issued in single-user mode (Sec. 5). Multi-user mixes are
/// the extension of Sec. 7's future-work list. The driver targets the
/// mdw::Warehouse façade, so the same workload can run against any
/// execution backend.
///
/// All batch paths are plan-first: Warehouse::ExecuteBatch derives (or
/// cache-hits) exactly one QueryPlan per generated query and the backends
/// never re-plan, so a driver run of N queries costs N plan derivations at
/// most — fewer when the generator repeats parameters and the warehouse's
/// plan cache is enabled (see Warehouse::plan_cache_stats()).
class WorkloadDriver {
 public:
  /// Drives workloads against `warehouse`; the query generator is seeded
  /// from the warehouse seed.
  explicit WorkloadDriver(Warehouse warehouse, double skew_theta = 0.0);

  /// `repetitions` random instances of `type`, run back-to-back; returns
  /// averaged statistics (the paper's "average response time"). Requires a
  /// simulated backend.
  SimResult RunSingleUser(QueryType type, int repetitions);

  /// Runs a mix with `streams` concurrent query streams. Requires a
  /// simulated backend.
  SimResult RunMix(const std::vector<WorkloadSpec>& mix, int streams);

  /// Façade-native variants returning the unified BatchOutcome; these work
  /// on every backend (the materialized one ignores `streams`).
  BatchOutcome RunBatch(QueryType type, int repetitions, int streams = 1);
  BatchOutcome RunMixBatch(const std::vector<WorkloadSpec>& mix, int streams);

  const Warehouse& warehouse() const { return warehouse_; }

  /// Simulator settings of the underlying warehouse; like
  /// Warehouse::sim_config(), aborts on a materialized backend.
  const SimConfig& config() const { return warehouse_.sim_config(); }

 private:
  Warehouse warehouse_;
  QueryGenerator generator_;
};

}  // namespace mdw

#endif  // MDW_WORKLOAD_WORKLOAD_DRIVER_H_
