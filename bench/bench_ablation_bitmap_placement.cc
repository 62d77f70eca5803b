// Ablation A2: staggered vs same-disk bitmap fragment placement
// (paper Sec. 4.6 / 6.2). Staggering enables parallel bitmap I/O within a
// subquery; co-location serialises it on the fact fragment's disk.

#include <cstdio>

#include "common/table_printer.h"
#include "schema/apb1.h"
#include "workload/workload_driver.h"

namespace {

double Run(const mdw::StarSchema& schema, const mdw::Fragmentation& frag,
           mdw::QueryType type, mdw::BitmapPlacement placement,
           bool parallel_io, int t) {
  mdw::SimConfig config;
  config.num_disks = 100;
  config.num_nodes = 20;
  config.tasks_per_node = t;
  config.bitmap_placement = placement;
  config.parallel_bitmap_io = parallel_io;
  mdw::WorkloadDriver driver(mdw::Warehouse(
      {.schema = schema, .fragmentation = frag.attrs(), .sim = config}));
  return driver.RunSingleUser(type, 1).avg_response_ms;
}

}  // namespace

int main() {
  const auto schema = mdw::MakeApb1Schema();
  const mdw::Fragmentation frag(&schema,
                                {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}});

  std::printf(
      "Ablation A2: bitmap fragment placement x I/O mode (d=100, p=20)\n\n");
  mdw::TablePrinter table({"query", "t", "staggered+parallel [s]",
                           "staggered+serial [s]", "same-disk [s]"});
  struct Case {
    mdw::QueryType type;
    const char* name;
    int t;
  };
  for (const auto& c :
       {Case{mdw::QueryType::k1Group1Store, "1GROUP1STORE", 1},
        Case{mdw::QueryType::k1Group1Store, "1GROUP1STORE", 2},
        Case{mdw::QueryType::k1Store, "1STORE", 5}}) {
    const double stag_par = Run(schema, frag, c.type,
                                mdw::BitmapPlacement::kStaggered, true, c.t);
    const double stag_ser = Run(schema, frag, c.type,
                                mdw::BitmapPlacement::kStaggered, false, c.t);
    const double same = Run(schema, frag, c.type,
                            mdw::BitmapPlacement::kSameDisk, false, c.t);
    table.AddRow({c.name, std::to_string(c.t),
                  mdw::TablePrinter::Num(stag_par / 1000, 2),
                  mdw::TablePrinter::Num(stag_ser / 1000, 2),
                  mdw::TablePrinter::Num(same / 1000, 2)});
  }
  table.Print(stdout);
  std::printf(
      "\nExpected: staggered placement with parallel I/O is fastest; the\n"
      "gain is largest when few subqueries compete for the disks.\n");
  return 0;
}
