// Ablation A4 (paper Sec. 7 future work): multi-user mode. Concurrent
// query streams share the nodes and disks; throughput rises with
// concurrency while per-query response times degrade gracefully.

#include <cstdio>

#include "common/table_printer.h"
#include "schema/apb1.h"
#include "workload/workload_driver.h"

int main() {
  const auto schema = mdw::MakeApb1Schema();
  const mdw::Fragmentation frag(&schema,
                                {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}});

  std::printf(
      "Ablation A4: multi-user mode — 16 x 1GROUP1STORE queries, varying\n"
      "the number of concurrent streams (d=100, p=20, t=4)\n\n");
  mdw::TablePrinter table({"streams", "avg response [s]", "makespan [s]",
                           "throughput [q/s]", "avg disk util"});
  for (const int streams : {1, 2, 4, 8, 16}) {
    mdw::SimConfig config;
    config.num_disks = 100;
    config.num_nodes = 20;
    config.tasks_per_node = 4;
    mdw::WorkloadDriver driver(mdw::Warehouse(
        {.schema = schema, .fragmentation = frag.attrs(), .sim = config}));
    const auto result = driver.RunMix(
        {{mdw::QueryType::k1Group1Store, 16}}, streams);
    table.AddRow({std::to_string(streams),
                  mdw::TablePrinter::Num(result.avg_response_ms / 1000, 2),
                  mdw::TablePrinter::Num(result.makespan_ms / 1000, 2),
                  mdw::TablePrinter::Num(result.ThroughputPerSecond(), 2),
                  mdw::TablePrinter::Num(result.avg_disk_utilization, 2)});
  }
  table.Print(stdout);
  std::printf(
      "\nExpected: the makespan shrinks and throughput rises with more\n"
      "streams until the disks saturate; single-query response times\n"
      "increase moderately due to sharing — the Shared Disk architecture\n"
      "balances the load without data repartitioning.\n");
  return 0;
}
