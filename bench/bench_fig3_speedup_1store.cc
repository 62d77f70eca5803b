// Reproduces paper Figure 3: response times and speed-up of the
// disk-bound 1STORE query under F_MonthGroup for d = 20/60/100 disks and
// p = d/20 .. d/2 processors, with t = d/p subqueries per node so the
// total concurrency matches the disk count.

#include <cstdio>
#include <vector>

#include "common/table_printer.h"
#include "schema/apb1.h"
#include "workload/workload_driver.h"

int main() {
  const auto schema = mdw::MakeApb1Schema();
  const mdw::Fragmentation frag(&schema,
                                {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}});

  const int disks[] = {20, 60, 100};
  const double ratios[] = {1.0 / 20, 1.0 / 10, 1.0 / 5, 1.0 / 4, 1.0 / 2};
  const char* ratio_names[] = {"p=d/20", "p=d/10", "p=d/5", "p=d/4",
                               "p=d/2"};

  std::printf("Figure 3: 1STORE response time and speed-up (t = d/p)\n\n");
  mdw::TablePrinter table({"series", "d", "p", "t", "response [s]",
                           "speedup vs d=20", "avg disk util"});

  for (std::size_t r = 0; r < std::size(ratios); ++r) {
    double base_response = 0;
    for (const int d : disks) {
      const int p = std::max(1, static_cast<int>(d * ratios[r]));
      mdw::SimConfig config;
      config.num_disks = d;
      config.num_nodes = p;
      config.tasks_per_node = std::max(1, d / p);
      mdw::WorkloadDriver driver(mdw::Warehouse(
          {.schema = schema, .fragmentation = frag.attrs(), .sim = config}));
      const auto result = driver.RunSingleUser(mdw::QueryType::k1Store, 1);
      if (d == disks[0]) base_response = result.avg_response_ms;
      table.AddRow({ratio_names[r], std::to_string(d), std::to_string(p),
                    std::to_string(config.tasks_per_node),
                    mdw::TablePrinter::Num(result.avg_response_ms / 1000, 1),
                    mdw::TablePrinter::Num(
                        base_response / result.avg_response_ms, 2),
                    mdw::TablePrinter::Num(result.avg_disk_utilization, 2)});
    }
  }
  table.Print(stdout);
  std::printf(
      "\nPaper shape: response times depend solely on d (curves for all\n"
      "p-ratios coincide); speed-up over d is linear to slightly\n"
      "superlinear (reduced seek distances with less data per disk).\n");
  return 0;
}
