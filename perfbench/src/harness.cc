#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

namespace perfbench {

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kSqlCovered, Workload::kSqlScan,
                     Workload::kSqlPaged, Workload::kServeTrace}) {
    if (name == ToString(w)) return w;
  }
  return std::nullopt;
}

const char* ToString(Workload workload) {
  switch (workload) {
    case Workload::kSqlCovered: return "sql_covered";
    case Workload::kSqlScan: return "sql_scan";
    case Workload::kSqlPaged: return "sql_paged";
    case Workload::kServeTrace: return "serve_trace";
  }
  return "?";
}

// ---------------------------------------------------------------- store

mdw::StarSchema MakeBenchSchema() {
  mdw::Dimension product("product",
                         mdw::Hierarchy({{"division", 2},
                                         {"line", 8},
                                         {"family", 24},
                                         {"group", 96},
                                         {"class", 480},
                                         {"code", 960}}),
                         mdw::IndexKind::kEncoded);
  mdw::Dimension customer("customer",
                          mdw::Hierarchy({{"retailer", 12}, {"store", 120}}),
                          mdw::IndexKind::kEncoded);
  mdw::Dimension channel("channel", mdw::Hierarchy({{"channel", 3}}),
                         mdw::IndexKind::kSimple);
  mdw::Dimension time("time",
                      mdw::Hierarchy(
                          {{"year", 2}, {"quarter", 8}, {"month", 24}}),
                      mdw::IndexKind::kSimple);
  return mdw::StarSchema("sales",
                         {std::move(product), std::move(customer),
                          std::move(channel), std::move(time)},
                         /*density=*/0.25, mdw::PhysicalParams{});
}

std::vector<mdw::FragAttr> BenchFragmentation() {
  return {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}};
}

int LanesOf(Workload workload) {
  return workload == Workload::kSqlPaged ? 1 : 2;
}

mdw::WarehouseConfig BenchConfig(Workload workload,
                                 const std::string& store_dir) {
  mdw::WarehouseConfig config{.schema = MakeBenchSchema(),
                              .fragmentation = BenchFragmentation(),
                              .backend = mdw::BackendKind::kMaterialized,
                              .seed = kDataSeed,
                              .num_workers = LanesOf(workload),
                              .enable_fragment_summaries = true,
                              .num_shards = kShards};
  if (workload == Workload::kSqlPaged) config.storage_path = store_dir;
  return config;
}

// ---------------------------------------------------------------- random

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::int64_t Rng::Below(std::int64_t n) {
  return static_cast<std::int64_t>(Next() % static_cast<std::uint64_t>(n));
}

double Rng::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

ZipfSampler::ZipfSampler(std::int64_t n, double s) {
  cdf_.reserve(static_cast<std::size_t>(n));
  double total = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::int64_t ZipfSampler::Sample(Rng& rng) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.Unit());
  return std::min<std::int64_t>(it - cdf_.begin(),
                                static_cast<std::int64_t>(cdf_.size()) - 1);
}

// ---------------------------------------------------------------- SQL

namespace {

// SELECT lists: every variant is its own plan-cache key.
constexpr const char* kAggs[] = {
    "SUM(UnitsSold), SUM(DollarSales)", "SUM(DollarSales)",
    "COUNT(*), SUM(UnitsSold)", "AVG(DollarSales), COUNT(*)"};
constexpr std::int64_t kNumAggs = 4;
// ORDER BY directions share the plan-cache key (top-k runs after
// execution) but change the statement text and the result table.
constexpr const char* kDirs[] = {"DESC", "ASC"};

/// Peels the next mixed-radix digit off `*index`.
std::int64_t Digit(std::int64_t* index, std::int64_t radix) {
  const std::int64_t d = *index % radix;
  *index /= radix;
  return d;
}

std::string Select(std::int64_t* i) {
  return std::string("SELECT ") + kAggs[Digit(i, kNumAggs)] + " FROM sales";
}

std::string Str(std::int64_t v) { return std::to_string(v); }

// ---- fully covered: answered from prefix sums, rows_scanned == 0 ----

std::string OneMonthOneGroup(std::int64_t i) {
  std::string s = Select(&i);
  const auto g = Digit(&i, 96);
  return s + " WHERE time.month = " + Str(i) + " AND product.group = " +
         Str(g);
}
std::string OneMonth(std::int64_t i) {
  std::string s = Select(&i);
  return s + " WHERE time.month = " + Str(i);
}
std::string OneQuarter(std::int64_t i) {
  std::string s = Select(&i);
  return s + " WHERE time.quarter = " + Str(i);
}
std::string QuarterFamily(std::int64_t i) {
  std::string s = Select(&i);
  const auto f = Digit(&i, 24);
  return s + " WHERE time.quarter = " + Str(i) + " AND product.family = " +
         Str(f);
}
std::string GroupByMonth(std::int64_t i) {
  std::string s = Select(&i);
  const char* dir = kDirs[Digit(&i, 2)];
  const auto f = Digit(&i, 24);
  return s + " WHERE time.quarter = " + Str(i) + " AND product.family = " +
         Str(f) + " GROUP BY time.month ORDER BY 1 " + dir + " LIMIT 2";
}
std::string GroupByQuarter(std::int64_t i) {
  std::string s = Select(&i);
  const char* dir = kDirs[Digit(&i, 2)];
  return s + " WHERE product.group = " + Str(i) +
         " GROUP BY time.quarter ORDER BY 1 " + dir + " LIMIT 3";
}
std::string GroupByGroup(std::int64_t i) {
  std::string s = Select(&i);
  const char* dir = kDirs[Digit(&i, 2)];
  return s + " WHERE time.month = " + Str(i) +
         " GROUP BY product.group ORDER BY 1 " + dir + " LIMIT 5";
}
std::string GroupByFamily(std::int64_t i) {
  std::string s = Select(&i);
  const char* dir = kDirs[Digit(&i, 2)];
  return s + " WHERE time.quarter = " + Str(i) +
         " GROUP BY product.family ORDER BY 1 " + dir + " LIMIT 3";
}

// ---- residual: predicates below or outside the fragmentation ----

std::string OneCodeOneMonth(std::int64_t i) {
  std::string s = Select(&i);
  const auto c = Digit(&i, 960);
  return s + " WHERE product.code = " + Str(c) + " AND time.month = " +
         Str(i);
}
std::string OneCodeOneQuarter(std::int64_t i) {
  std::string s = Select(&i);
  const auto c = Digit(&i, 960);
  return s + " WHERE product.code = " + Str(c) + " AND time.quarter = " +
         Str(i);
}
std::string OneCode(std::int64_t i) {
  std::string s = Select(&i);
  return s + " WHERE product.code = " + Str(i);
}
std::string OneGroupOneStore(std::int64_t i) {
  std::string s = Select(&i);
  const auto g = Digit(&i, 96);
  return s + " WHERE product.group = " + Str(g) + " AND customer.store = " +
         Str(i);
}
std::string GroupChannel(std::int64_t i) {
  std::string s = Select(&i);
  const auto g = Digit(&i, 96);
  return s + " WHERE product.group = " + Str(g) +
         " AND channel.channel = " + Str(i);
}
std::string GroupByClass(std::int64_t i) {
  std::string s = Select(&i);
  const char* dir = kDirs[Digit(&i, 2)];
  const auto g = Digit(&i, 96);
  return s + " WHERE product.group = " + Str(g) + " AND time.quarter = " +
         Str(i) + " GROUP BY product.class ORDER BY 1 " + dir + " LIMIT 3";
}
std::string GroupByRetailer(std::int64_t i) {
  std::string s = Select(&i);
  const char* dir = kDirs[Digit(&i, 2)];
  const auto f = Digit(&i, 24);
  return s + " WHERE time.month = " + Str(i) + " AND product.family = " +
         Str(f) + " GROUP BY customer.retailer ORDER BY 1 " + dir +
         " LIMIT 5";
}
std::string MonthChannel(std::int64_t i) {
  std::string s = Select(&i);
  const auto m = Digit(&i, 24);
  return s + " WHERE time.month = " + Str(m) + " AND channel.channel = " +
         Str(i);
}
std::string OneMonthOneStore(std::int64_t i) {
  std::string s = Select(&i);
  const auto m = Digit(&i, 24);
  return s + " WHERE time.month = " + Str(m) + " AND customer.store = " +
         Str(i);
}
std::string OneStore(std::int64_t i) {
  std::string s = Select(&i);
  return s + " WHERE customer.store = " + Str(i);
}

}  // namespace

const std::vector<StatementClass>& ClassesOf(Workload workload) {
  // Shares are set so that each reported percentile falls well inside
  // one class (see the per-class table of a traced run); README.md
  // records the costs behind them.
  static const std::vector<StatementClass> kCovered = {
      {"1MONTH1GROUP", 35, 24 * 96 * kNumAggs, 1200, 1.2, OneMonthOneGroup},
      {"1MONTH", 10, 24 * kNumAggs, 96, 1.2, OneMonth},
      {"1QUARTER", 5, 8 * kNumAggs, 32, 1.2, OneQuarter},
      {"QUARTER_FAMILY", 15, 8 * 24 * kNumAggs, 400, 1.2, QuarterFamily},
      {"GROUPBY_MONTH", 15, 8 * 24 * 2 * kNumAggs, 400, 1.2, GroupByMonth},
      {"GROUPBY_QUARTER", 10, 96 * 2 * kNumAggs, 300, 1.2, GroupByQuarter},
      {"GROUPBY_GROUP", 7, 24 * 2 * kNumAggs, 192, 1.2, GroupByGroup},
      {"GROUPBY_FAMILY", 3, 8 * 2 * kNumAggs, 64, 1.2, GroupByFamily},
  };
  static const std::vector<StatementClass> kScan = {
      {"1CODE1MONTH", 15, 960 * 24 * kNumAggs, 400, 0.3, OneCodeOneMonth},
      {"1CODE1QUARTER", 10, 960 * 8 * kNumAggs, 300, 0.3, OneCodeOneQuarter},
      {"GROUPBY_CLASS", 10, 96 * 8 * 2 * kNumAggs, 300, 0.3, GroupByClass},
      {"GROUPBY_RETAILER", 10, 24 * 24 * 2 * kNumAggs, 300, 0.3,
       GroupByRetailer},
      {"1CODE", 14, 960 * kNumAggs, 300, 0.3, OneCode},
      {"1GROUP1STORE", 12, 96 * 120 * kNumAggs, 300, 0.3, OneGroupOneStore},
      {"GROUP_CHANNEL", 14, 96 * 3 * kNumAggs, 200, 0.3, GroupChannel},
      {"1MONTH1STORE", 8, 24 * 120 * kNumAggs, 150, 0.3, OneMonthOneStore},
      {"MONTH_CHANNEL", 4, 24 * 3 * kNumAggs, 150, 0.3, MonthChannel},
      {"1STORE", 3, 120 * kNumAggs, 120, 0.3, OneStore},
  };
  return workload == Workload::kSqlCovered ? kCovered : kScan;
}

std::int64_t SequenceLength(Workload workload) {
  return workload == Workload::kSqlCovered ? 20000 : 1500;
}

SqlWorkload MakeSqlWorkload(Workload workload, std::uint64_t seed) {
  // sql_paged replays sql_scan's statements exactly.
  if (workload == Workload::kSqlPaged) workload = Workload::kSqlScan;
  const std::vector<StatementClass>& classes = ClassesOf(workload);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<int>(workload));
  SqlWorkload w;
  std::vector<std::vector<std::uint32_t>> pool_of(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const StatementClass& sc = classes[c];
    w.class_names.push_back(sc.name);
    // A seeded partial shuffle picks the pool; its order is the hotness
    // rank the Zipf draw below indexes.
    std::vector<std::int64_t> ids(static_cast<std::size_t>(sc.space));
    std::iota(ids.begin(), ids.end(), 0);
    for (std::int64_t k = 0; k < sc.pool; ++k) {
      const std::int64_t j = k + rng.Below(sc.space - k);
      std::swap(ids[static_cast<std::size_t>(k)],
                ids[static_cast<std::size_t>(j)]);
      pool_of[c].push_back(static_cast<std::uint32_t>(w.statements.size()));
      w.statements.push_back(sc.text(ids[static_cast<std::size_t>(k)]));
      w.statement_class.push_back(static_cast<int>(c));
    }
  }
  // Exact class composition, shuffled.
  const std::int64_t n = SequenceLength(workload);
  std::vector<int> class_at;
  class_at.reserve(static_cast<std::size_t>(n));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const std::int64_t count = n * classes[c].share / kSharesTotal;
    class_at.insert(class_at.end(), static_cast<std::size_t>(count),
                    static_cast<int>(c));
  }
  for (std::int64_t k = static_cast<std::int64_t>(class_at.size()) - 1; k > 0;
       --k) {
    std::swap(class_at[static_cast<std::size_t>(k)],
              class_at[static_cast<std::size_t>(rng.Below(k + 1))]);
  }
  std::vector<ZipfSampler> zipf;
  for (const auto& sc : classes) zipf.emplace_back(sc.pool, sc.zipf_s);
  w.sequence.reserve(class_at.size());
  for (const int c : class_at) {
    const auto u = static_cast<std::size_t>(c);
    w.sequence.push_back(
        pool_of[u][static_cast<std::size_t>(zipf[u].Sample(rng))]);
  }
  return w;
}

// ---------------------------------------------------------------- serve

namespace {

mdw::ArrivalConfig WindowConfig(const ServeWorkload& w, int index) {
  mdw::ArrivalConfig config = w.arrivals;
  config.seed = Rng(w.seed * 1000003ull + static_cast<std::uint64_t>(index))
                    .Next();
  return config;
}

}  // namespace

ServeWorkload MakeServeWorkload(const mdw::StarSchema& schema,
                                std::uint64_t seed) {
  ServeWorkload w;
  w.schema = &schema;
  w.seed = seed;
  w.arrivals = {
      .num_streams = kServeStreams,
      .mean_interarrival_vt = 1000.0,
      .stream_skew_theta = 0.5,
      .mix = {mdw::QueryType::k1Month1Group, mdw::QueryType::k1Quarter,
              mdw::QueryType::k1Code1Month, mdw::QueryType::k1Group1Store,
              mdw::QueryType::k1Code1Quarter},
      .query_skew_theta = 0.5};
  // Pilot: the same draws at a unit gap give the demands, which set the
  // gap for the target load (the generator's gap scales every
  // interarrival without changing any other draw).
  const mdw::Fragmentation frag(&schema, BenchFragmentation());
  const mdw::QueryPlanner planner(&schema, &frag);
  double total = 0;
  std::int64_t max_window_demand = 0;
  for (int i = 0; i < kServeWindows; ++i) {
    std::int64_t window_demand = 0;
    for (const auto& a : ServeWindow(w, i)) {
      const std::int64_t d = mdw::VirtualDemand(planner.Plan(a.query));
      total += static_cast<double>(d);
      window_demand += d;
    }
    max_window_demand = std::max(max_window_demand, window_demand);
  }
  const int lanes = LanesOf(Workload::kServeTrace);
  w.mean_demand = total / (kServeWindows * kServeWindow);
  w.arrivals.mean_interarrival_vt = w.mean_demand / (lanes * kServeLoad);

  w.config.policy = mdw::SchedPolicy::kFcfs;
  w.config.num_workers = lanes;
  w.config.queue_capacity = kServeWindow;
  // No query can wait longer than its window's whole demand, so with this
  // deadline nothing is rejected, shed or degraded and every arrival is an
  // exact answer; the deadline and overload paths still run their checks.
  w.config.deadline_vt = max_window_demand + 1;
  for (int s = 0; s < kServeStreams; ++s) {
    w.config.stream_overload.push_back(s % 2 == 0
                                           ? mdw::OverloadPolicy::kDegrade
                                           : mdw::OverloadPolicy::kShed);
  }
  return w;
}

std::vector<mdw::Arrival> ServeWindow(const ServeWorkload& w, int index) {
  std::vector<mdw::Arrival> window =
      mdw::ArrivalGenerator(w.schema, WindowConfig(w, index))
          .Generate(kServeWindow);
  const std::int64_t t0 = window.front().vt;
  for (auto& a : window) a.vt -= t0;
  return window;
}

// ---------------------------------------------------------------- stats

std::int64_t NearestRankIndex(std::int64_t n, double p) {
  const auto rank =
      static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::int64_t>(rank, 1, n);
}

std::optional<double> NearestRank(std::vector<double> samples, double p,
                                  std::int64_t min_beyond) {
  const auto n = static_cast<std::int64_t>(samples.size());
  if (n == 0) return std::nullopt;
  const std::int64_t rank = NearestRankIndex(n, p);
  if (n - rank < min_beyond) return std::nullopt;
  const auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------- answers

void Digest::Mix(std::int64_t v) {
  for (int b = 0; b < 8; ++b) {
    hash_ ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::Add(const mdw::ResultTable& table) {
  Mix(static_cast<std::int64_t>(table.rows.size()));
  for (const auto& row : table.rows) {
    Mix(row.key);
    Mix(row.rows);
    Mix(row.units_sold);
    Mix(row.dollar_sales_cents);
  }
}

void Digest::AddFailure() { Mix(-1); }

mdw::ResultTable OracleTable(const mdw::MiniWarehouse& mini,
                             const mdw::StarQuery& query) {
  std::vector<mdw::GroupRow> rows;
  if (query.grouped()) {
    rows = mini.ExecuteFullScanGrouped(query);
  } else {
    const auto r = mini.ExecuteFullScan(query);
    rows.push_back({0, r.rows, r.units_sold, r.dollar_sales_cents, 0});
  }
  return mdw::MakeResultTable(query.aggregates(), query.group_by(),
                              query.order_by(), std::move(rows));
}

bool SameAnswer(const mdw::ResultTable& a, const mdw::ResultTable& b) {
  if (!(a.spec == b.spec) || a.group_by != b.group_by ||
      a.order_by != b.order_by || a.rows.size() != b.rows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    if (x.key != y.key || x.rows != y.rows || x.units_sold != y.units_sold ||
        x.dollar_sales_cents != y.dollar_sales_cents) {
      return false;
    }
  }
  return true;
}

mdw::ResultTable TableOf(const mdw::StarQuery& query,
                         mdw::MiniWarehouse::MdhfExecution exec) {
  std::vector<mdw::GroupRow> rows;
  if (query.grouped()) {
    rows = std::move(exec.groups);
  } else {
    rows.push_back({0, exec.result.rows, exec.result.units_sold,
                    exec.result.dollar_sales_cents, exec.rows_summarized});
  }
  return mdw::MakeResultTable(query.aggregates(), query.group_by(),
                              query.order_by(), std::move(rows));
}

// ---------------------------------------------------------------- host

namespace {

double SecondsOf(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double NowSeconds() { return SecondsOf(CLOCK_MONOTONIC); }

double ProcessCpuSeconds() { return SecondsOf(CLOCK_PROCESS_CPUTIME_ID); }

double RssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

std::string LoadAverage() {
  std::ifstream loadavg("/proc/loadavg");
  std::string a, b, c;
  loadavg >> a >> b >> c;
  return a + " " + b + " " + c;
}

std::string CompilerId() {
#ifdef PERFBENCH_CXX_ID
  return PERFBENCH_CXX_ID;
#else
  return "unknown";
#endif
}

std::string BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

}  // namespace perfbench
