#include "workload/workload_driver.h"

#include <utility>

#include "common/check.h"

namespace mdw {

WorkloadDriver::WorkloadDriver(Warehouse warehouse, double skew_theta)
    : warehouse_(std::move(warehouse)),
      generator_(&warehouse_.schema(), warehouse_.seed(), skew_theta) {}

SimResult WorkloadDriver::RunSingleUser(QueryType type, int repetitions) {
  const auto batch = RunBatch(type, repetitions, /*streams=*/1);
  MDW_CHECK(batch.sim.has_value(), "RunSingleUser needs a simulated backend");
  return *batch.sim;
}

SimResult WorkloadDriver::RunMix(const std::vector<WorkloadSpec>& mix,
                                 int streams) {
  const auto batch = RunMixBatch(mix, streams);
  MDW_CHECK(batch.sim.has_value(), "RunMix needs a simulated backend");
  return *batch.sim;
}

BatchOutcome WorkloadDriver::RunBatch(QueryType type, int repetitions,
                                      int streams) {
  return warehouse_.ExecuteBatch(generator_.GenerateMany(type, repetitions),
                                 streams);
}

BatchOutcome WorkloadDriver::RunMixBatch(const std::vector<WorkloadSpec>& mix,
                                         int streams) {
  MDW_CHECK(!mix.empty(), "empty workload mix");
  std::vector<StarQuery> queries;
  for (const auto& spec : mix) {
    for (int i = 0; i < spec.count; ++i) {
      queries.push_back(generator_.Generate(spec.type));
    }
  }
  return warehouse_.ExecuteBatch(queries, streams);
}

}  // namespace mdw
