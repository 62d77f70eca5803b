// Reproduces paper Figure 4: response times and speed-up of the CPU-bound
// 1MONTH query under F_MonthGroup with t = 4, for the hardware grid of
// Table 5, plus the t = 5 discretisation fix at d = 100, p = 50.

#include <cstdio>

#include "common/table_printer.h"
#include "schema/apb1.h"
#include "workload/workload_driver.h"

namespace {

double Run(const mdw::StarSchema& schema, const mdw::Fragmentation& frag,
           int d, int p, int t) {
  mdw::SimConfig config;
  config.num_disks = d;
  config.num_nodes = p;
  config.tasks_per_node = t;
  mdw::WorkloadDriver driver(mdw::Warehouse(
      {.schema = schema, .fragmentation = frag.attrs(), .sim = config}));
  return driver.RunSingleUser(mdw::QueryType::k1Month, 1).avg_response_ms;
}

}  // namespace

int main() {
  const auto schema = mdw::MakeApb1Schema();
  const mdw::Fragmentation frag(&schema,
                                {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}});

  // Table 5 processor counts per disk count.
  const int disks[] = {20, 60, 100};
  const int procs[3][5] = {
      {1, 2, 4, 5, 10}, {3, 6, 12, 15, 30}, {5, 10, 20, 25, 50}};

  std::printf("Figure 4: 1MONTH response time and speed-up (t = 4)\n\n");
  mdw::TablePrinter table(
      {"d", "p", "t", "response [s]", "speedup (vs 1 proc)"});

  for (int di = 0; di < 3; ++di) {
    double per_proc_baseline = 0;  // response * p of the smallest p
    for (int pi = 0; pi < 5; ++pi) {
      const int d = disks[di];
      const int p = procs[di][pi];
      const double response = Run(schema, frag, d, p, 4);
      if (pi == 0) per_proc_baseline = response * p;
      table.AddRow({std::to_string(d), std::to_string(p), "4",
                    mdw::TablePrinter::Num(response / 1000, 1),
                    mdw::TablePrinter::Num(per_proc_baseline / response,
                                           1)});
    }
  }

  // The paper's discretisation fix: at d=100, p=50, t=4 produces batches
  // of 200+200+80; t=5 produces 250+230 and restores linear speed-up.
  const double t4 = Run(schema, frag, 100, 50, 4);
  const double t5 = Run(schema, frag, 100, 50, 5);
  table.AddRow({"100", "50", "5",
                mdw::TablePrinter::Num(t5 / 1000, 1),
                mdw::TablePrinter::Num(t4 / t5, 2)});
  table.Print(stdout);

  std::printf(
      "\nPaper shape: response depends on p, not d; linear speed-up in p.\n"
      "At d=100, p=50 the t=4 batching (200/200/80 of 480 fragments) is\n"
      "inefficient; t=5 (250/230) improves it (last row shows t4/t5 > 1).\n");
  return 0;
}
