// Ablation A7: Shared Disk vs Shared Nothing under data skew.
// The paper (Sec. 1/2) argues Shared Disk suits warehouses because any
// node can process any subquery, giving dynamic load balancing; Shared
// Nothing pins subqueries to the node owning the fragment's disk. With
// uniform data both keep all resources busy; with skewed per-fragment hit
// counts, Shared Nothing cannot shed load from hot nodes.

#include <cstdio>

#include "common/table_printer.h"
#include "schema/apb1.h"
#include "workload/workload_driver.h"

namespace {

mdw::SimResult Run(const mdw::StarSchema& schema,
                   const mdw::Fragmentation& frag,
                   mdw::Architecture architecture, double skew,
                   mdw::QueryType type) {
  mdw::SimConfig config;
  config.architecture = architecture;
  if (architecture == mdw::Architecture::kSharedNothing) {
    config.bitmap_placement = mdw::BitmapPlacement::kSameNode;
  }
  config.num_disks = 100;
  config.num_nodes = 20;
  config.tasks_per_node = 5;
  config.fragment_skew_theta = skew;
  mdw::WorkloadDriver driver(mdw::Warehouse(
      {.schema = schema, .fragmentation = frag.attrs(), .sim = config}));
  return driver.RunSingleUser(type, 1);
}

}  // namespace

int main() {
  const auto schema = mdw::MakeApb1Schema();
  const mdw::Fragmentation frag(&schema,
                                {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}});

  std::printf(
      "Ablation A7: Shared Disk vs Shared Nothing (d=100, p=20, t=5)\n\n");
  mdw::TablePrinter table({"query", "skew theta", "Shared Disk [s]",
                           "Shared Nothing [s]", "SN/SD"});
  struct Case {
    mdw::QueryType type;
    double skew;
  };
  const Case cases[] = {
      {mdw::QueryType::k1Month, 0.0},  {mdw::QueryType::k1Month, 0.5},
      {mdw::QueryType::k1Month, 0.9},  {mdw::QueryType::k1Group1Store, 0.0},
      {mdw::QueryType::k1Group1Store, 0.9},
      {mdw::QueryType::k1Store, 0.0},
  };
  for (const auto& c : cases) {
    const auto sd = Run(schema, frag, mdw::Architecture::kSharedDisk,
                        c.skew, c.type);
    const auto sn = Run(schema, frag, mdw::Architecture::kSharedNothing,
                        c.skew, c.type);
    table.AddRow({ToString(c.type), mdw::TablePrinter::Num(c.skew, 1),
                  mdw::TablePrinter::Num(sd.avg_response_ms / 1000, 2),
                  mdw::TablePrinter::Num(sn.avg_response_ms / 1000, 2),
                  mdw::TablePrinter::Num(
                      sn.avg_response_ms / sd.avg_response_ms, 2)});
  }
  table.Print(stdout);
  std::printf(
      "\nExpected: near parity under uniform load; Shared Nothing falls\n"
      "behind as skew pins the hot fragments' work to single nodes while\n"
      "Shared Disk redistributes it (paper Sec. 1: 'high potential for\n"
      "parallel query processing and dynamic load balancing').\n");
  return 0;
}
