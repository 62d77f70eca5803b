#ifndef MDW_CORE_MDW_H_
#define MDW_CORE_MDW_H_

/// Umbrella header for the MDHF library — multi-dimensional hierarchical
/// fragmentation and allocation for parallel data warehouses, after
/// Stöhr/Märtens/Rahm, VLDB 2000.
///
/// Typical usage goes through the mdw::Warehouse façade, which owns the
/// schema, fragmentation, plan cache, and one engine (the materialised
/// MiniWarehouse or the SIMPAD Simulator) behind one value-semantic entry
/// point. Execution is plan-first: each query is planned once (or served
/// from the cache) and the engine never re-plans — see
/// docs/ARCHITECTURE.md for the full flow.
///   #include "core/mdw.h"
///   mdw::Warehouse wh({.schema = mdw::MakeApb1Schema(),
///                      .fragmentation = {{mdw::kApb1Time, 2},
///                                        {mdw::kApb1Product, 3}},
///                      .backend = mdw::BackendKind::kSimulated});
///   auto query = mdw::apb1_queries::OneMonthOneGroup(3, 41);
///   auto plan = wh.Plan(query);     // derives + caches the plan
///   auto outcome = wh.Execute(query);  // cache hit: no re-planning
///   // outcome.query_class / .response_ms / .sim->disk_ios ...
///   auto stats = wh.plan_cache_stats();  // hits=1 misses=1
/// Swap `.backend` for BackendKind::kMaterialized (with a small schema,
/// e.g. MakeTinyApb1Schema()) to execute against materialised facts and
/// read the functional result from outcome.table. Set
/// WarehouseConfig::plan_cache_capacity = 0 to plan afresh every call.
///
/// The individual layers (Fragmentation, QueryPlanner, Simulator,
/// MiniWarehouse, ...) stay public for fine-grained control and for the
/// paper-reproduction benches.

#include "alloc/declustering_analysis.h"
#include "alloc/disk_allocation.h"
#include "bitmap/compressed_bitvector.h"
#include "bitmap/index_set.h"
#include "core/advisor.h"
#include "core/mini_warehouse.h"
#include "core/paged_layout.h"
#include "core/result_table.h"
#include "core/warehouse.h"
#include "cost/cost_report.h"
#include "cost/io_cost_model.h"
#include "cost/response_model.h"
#include "cost/storage_model.h"
#include "fragment/bitmap_elimination.h"
#include "fragment/enumeration.h"
#include "fragment/fragmentation.h"
#include "fragment/plan_cache.h"
#include "fragment/query_planner.h"
#include "fragment/range_fragmentation.h"
#include "fragment/star_query.h"
#include "fragment/thresholds.h"
#include "index/btree.h"
#include "sched/query_scheduler.h"
#include "schema/apb1.h"
#include "schema/dimension_table.h"
#include "schema/star_schema.h"
#include "sim/simulator.h"
#include "workload/arrival_generator.h"
#include "workload/query_generator.h"
#include "workload/query_parser.h"
#include "workload/workload_driver.h"

#endif  // MDW_CORE_MDW_H_
