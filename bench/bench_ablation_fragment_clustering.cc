// Ablation A3 (paper Sec. 6.3 outlook): clustering multiple fragments
// into one subquery. This reduces per-subquery scheduling overhead
// (initiate/terminate CPU, assignment/result messages) for fragmentations
// with very many fragments, at the price of coarser load-balancing units.

#include <cstdio>

#include "common/table_printer.h"
#include "schema/apb1.h"
#include "workload/workload_driver.h"

namespace {

mdw::SimResult Run(const mdw::StarSchema& schema,
                   const mdw::Fragmentation& frag, mdw::QueryType type,
                   int cluster) {
  mdw::SimConfig config;
  config.num_disks = 100;
  config.num_nodes = 20;
  config.tasks_per_node = 5;
  config.fragment_cluster_factor = cluster;
  mdw::WorkloadDriver driver(mdw::Warehouse(
      {.schema = schema, .fragmentation = frag.attrs(), .sim = config}));
  return driver.RunSingleUser(type, 1);
}

}  // namespace

int main() {
  const auto schema = mdw::MakeApb1Schema();
  const mdw::Fragmentation month_code(
      &schema, {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 5}});
  const mdw::Fragmentation month_group(
      &schema, {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}});

  std::printf(
      "Ablation A3: fragment clustering (fragments per subquery)\n\n");
  mdw::TablePrinter table({"fragmentation", "query", "cluster",
                           "subqueries", "messages", "response [s]"});
  struct Case {
    const mdw::Fragmentation* frag;
    const char* name;
    mdw::QueryType type;
    int cluster;
  };
  const Case cases[] = {
      {&month_group, "F_MonthGroup", mdw::QueryType::k1Month, 1},
      {&month_group, "F_MonthGroup", mdw::QueryType::k1Month, 4},
      {&month_group, "F_MonthGroup", mdw::QueryType::k1Month, 16},
      {&month_code, "F_MonthCode", mdw::QueryType::k1Store, 1},
      {&month_code, "F_MonthCode", mdw::QueryType::k1Store, 16},
      {&month_code, "F_MonthCode", mdw::QueryType::k1Store, 64},
  };
  for (const auto& c : cases) {
    const auto result = Run(schema, *c.frag, c.type, c.cluster);
    table.AddRow({c.name, ToString(c.type), std::to_string(c.cluster),
                  mdw::TablePrinter::Int(result.subqueries),
                  mdw::TablePrinter::Int(result.messages),
                  mdw::TablePrinter::Num(result.avg_response_ms / 1000, 1)});
  }
  table.Print(stdout);
  std::printf(
      "\nExpected: for F_MonthCode's 345,600 fragments, clustering cuts\n"
      "hundreds of thousands of scheduling messages; response times\n"
      "improve until clusters become too coarse to balance load. The\n"
      "paper proposes exactly this to rescue fine fragmentations.\n");
  return 0;
}
