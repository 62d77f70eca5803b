#include "core/warehouse.h"

#include <utility>

#include "common/check.h"
#include "workload/query_parser.h"

namespace mdw {

Warehouse::Warehouse(WarehouseConfig config)
    : seed_(config.seed.value_or(config.sim.seed)) {
  if (config.backend == BackendKind::kMaterialized) {
    // The mini-warehouse owns its schema copy; alias the façade's schema
    // handle to it so fragmentation and planner see the same object the
    // warehouse validates against. It is built fragment-clustered under
    // the configured fragmentation attributes, so plans derived by this
    // façade execute fragment-confined through the row-range directory.
    MDW_CHECK(config.num_shards >= 1, "num_shards must be at least 1");
    storage::StoreOptions store_options;
    store_options.path = std::move(config.storage_path);
    store_options.pool_pages = config.storage_pool_pages;
    store_options.prefetch = config.storage_prefetch;
    store_options.retry = config.storage_retry;
    store_options.fault_plan = std::move(config.storage_fault);
    mini_ = std::make_shared<const MiniWarehouse>(
        std::move(config.schema), seed_, config.fragmentation,
        config.enable_fragment_summaries, config.num_shards,
        config.allocation, std::move(store_options));
    schema_ = std::shared_ptr<const StarSchema>(mini_, &mini_->schema());
  } else {
    schema_ = std::make_shared<const StarSchema>(std::move(config.schema));
  }

  // The fragmentation's deleter captures the schema handle: any QueryPlan
  // or backend holding the fragmentation transitively keeps the schema
  // (and for kMaterialized the fact data) alive.
  auto schema = schema_;
  fragmentation_ = std::shared_ptr<const Fragmentation>(
      new Fragmentation(schema.get(), std::move(config.fragmentation)),
      [schema](const Fragmentation* f) { delete f; });

  if (config.backend == BackendKind::kMaterialized) {
    backend_ = std::make_shared<MaterializedBackend>(mini_, fragmentation_,
                                                     config.num_workers);
  } else {
    backend_ = std::make_shared<SimulatedBackend>(schema_, fragmentation_,
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
  return backend_->Execute(query, *PlanShared(query));
}

StatusOr<QueryOutcome> Warehouse::ExecuteSql(std::string_view sql) const {
  StatusOr<StarQuery> query = ParseSql(*schema_, sql);
  if (!query.ok()) return query.status();
  return Execute(*query);
}

BatchOutcome Warehouse::ExecuteBatch(std::span<const StarQuery> queries,
                                     int streams) const {
  MDW_CHECK(!queries.empty(), "empty batch");
  // The backends consume contiguous plans; cache hits are copied out of
  // the cache (a copy is two vector clones — far cheaper than deriving).
  std::vector<QueryPlan> plans;
  plans.reserve(queries.size());
  for (const auto& q : queries) plans.push_back(*PlanShared(q));
  return backend_->ExecuteBatch(queries, plans, streams);
}

BatchOutcome Warehouse::Serve(std::span<const Arrival> arrivals,
                              const ServingConfig& config,
                              ServeSchedule* schedule_out) const {
  MDW_CHECK(backend_->kind() == BackendKind::kMaterialized,
            "Serve() needs BackendKind::kMaterialized — the simulated "
            "backend models multi-user streams via ExecuteBatch(streams)");
  std::vector<QueryPlan> plans;
  plans.reserve(arrivals.size());
  for (const auto& a : arrivals) plans.push_back(*PlanShared(a.query));
  return static_cast<const MaterializedBackend*>(backend_.get())
      ->Serve(arrivals, plans, config, schedule_out);
}

const MiniWarehouse* Warehouse::materialized() const { return mini_.get(); }

const SimConfig& Warehouse::sim_config() const {
  MDW_CHECK(backend_->kind() == BackendKind::kSimulated,
            "sim_config() needs BackendKind::kSimulated, but this "
            "warehouse runs the materialized backend");
  return static_cast<const SimulatedBackend*>(backend_.get())->config();
}

PlanCache::Stats Warehouse::plan_cache_stats() const {
  return plan_cache_ == nullptr ? PlanCache::Stats{} : plan_cache_->stats();
}

}  // namespace mdw
