// Workload generation, statistics and answer checking for the end-to-end
// benchmark. Everything here runs outside the timed calls: the benchmark
// program (e2e_main.cc) pre-generates a workload, then times only the
// calls into the warehouse.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/mdw.h"

namespace perfbench {

enum class Workload { kSqlCovered, kSqlScan, kSqlPaged, kServeTrace };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* ToString(Workload workload);

// ---------------------------------------------------------------- store

/// The benchmark's store: the medium APB-1 shape (960 product codes in 96
/// groups, 120 stores, 3 channels, 24 months, density 0.25), which holds
/// 2,072,514 fact rows at data seed 42.
mdw::StarSchema MakeBenchSchema();
/// {time.month, product.group}: 24 x 96 = 2304 fragments of ~900 rows.
std::vector<mdw::FragAttr> BenchFragmentation();
inline constexpr std::uint64_t kDataSeed = 42;
inline constexpr int kShards = 4;

/// Warehouse settings of `workload`: RAM store with two lanes, or (for
/// sql_paged) the file-backed store under `store_dir` with one lane.
mdw::WarehouseConfig BenchConfig(Workload workload,
                                 const std::string& store_dir = {});
/// Execution lanes (calling thread included) of `workload`.
int LanesOf(Workload workload);

// ---------------------------------------------------------------- random

/// SplitMix64: a tiny, portable, seeded generator, so the same seed makes
/// the same workload with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n).
  std::int64_t Below(std::int64_t n);
  /// Uniform in [0, 1).
  double Unit();

 private:
  std::uint64_t state_;
};

/// Discrete Zipf over ranks [0, n): P(rank k) proportional to 1/(k+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double s);
  std::int64_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------- SQL

/// A family of statements with the same shape and cost class.
struct StatementClass {
  const char* name;
  /// Statements of this class per `kSharesTotal` statements of the
  /// sequence (exact: every seed gets the same class composition).
  int share;
  /// Distinct parameterisations; `text(i)` for i in [0, space).
  std::int64_t space;
  /// Distinct statements drawn into the pool (<= space); the sequence
  /// picks among them by a Zipf rank with exponent `zipf_s`.
  std::int64_t pool;
  double zipf_s;
  std::string (*text)(std::int64_t index);
};
inline constexpr int kSharesTotal = 100;

/// The statement classes of a SQL workload (sql_paged uses sql_scan's).
const std::vector<StatementClass>& ClassesOf(Workload workload);

/// A SQL workload: a pool of distinct statements and the fixed sequence
/// of pool indices one pass executes.
struct SqlWorkload {
  std::vector<std::string> class_names;
  std::vector<std::string> statements;
  std::vector<int> statement_class;    ///< class of each pool entry
  std::vector<std::uint32_t> sequence;  ///< pool index per position
};

/// Statements per pass of each SQL workload.
std::int64_t SequenceLength(Workload workload);

/// Deterministic in (workload, seed); sql_paged equals sql_scan.
SqlWorkload MakeSqlWorkload(Workload workload, std::uint64_t seed);

// ---------------------------------------------------------------- serve

/// A long seeded arrival trace cut into windows of consecutive arrivals;
/// one Serve call serves one window (its virtual times rebased to start
/// at 0), so a pass over the windows gives per-call latencies whose
/// spread comes from each window's query mix. The windows are not kept:
/// ServeWindow regenerates one from its own seed whenever it is needed,
/// so the trace adds nothing to the resident set.
struct ServeWorkload {
  const mdw::StarSchema* schema = nullptr;
  mdw::ArrivalConfig arrivals;  ///< the seed is replaced per window
  std::uint64_t seed = 0;
  mdw::ServingConfig config;
  double mean_demand = 0;  ///< mean VirtualDemand of the trace
};

inline constexpr int kServeStreams = 16;
inline constexpr int kServeWindow = 50;     ///< arrivals per Serve call
inline constexpr int kServeWindows = 1000;  ///< Serve calls per pass
inline constexpr double kServeLoad = 0.95;

/// A seeded open-loop trace offered at kServeLoad of the virtual capacity
/// of LanesOf(kServeTrace) lanes, with its FCFS serving configuration.
/// `schema` must outlive the workload.
ServeWorkload MakeServeWorkload(const mdw::StarSchema& schema,
                                std::uint64_t seed);

/// Window `index` (0 <= index < kServeWindows) of `w`: kServeWindow
/// arrivals, deterministic in (w.seed, index).
std::vector<mdw::Arrival> ServeWindow(const ServeWorkload& w, int index);

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile `p` (0 < p < 100) of `samples` (any order),
/// or nullopt when fewer than `min_beyond` samples lie above its rank.
std::optional<double> NearestRank(std::vector<double> samples, double p,
                                  std::int64_t min_beyond = 10);
/// The 1-based nearest rank of percentile p over n samples.
std::int64_t NearestRankIndex(std::int64_t n, double p);
double Median(std::vector<double> values);

// ---------------------------------------------------------------- answers

/// FNV-1a fold of result tables in statement order.
class Digest {
 public:
  void Add(const mdw::ResultTable& table);
  void AddFailure();
  std::uint64_t value() const { return hash_; }

 private:
  void Mix(std::int64_t v);
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// The table the brute-force oracles give for `query`
/// (ExecuteFullScan / ExecuteFullScanGrouped, then ORDER BY and LIMIT
/// through MakeResultTable). Needs an in-RAM store.
mdw::ResultTable OracleTable(const mdw::MiniWarehouse& mini,
                             const mdw::StarQuery& query);
/// Equal answers: same spec, grouping, ordering and per-row key and sums
/// (rows_summarized is an execution statistic and is not compared).
bool SameAnswer(const mdw::ResultTable& a, const mdw::ResultTable& b);

/// The table ExecuteWithPlan's record yields, built as the façade does.
mdw::ResultTable TableOf(const mdw::StarQuery& query,
                         mdw::MiniWarehouse::MdhfExecution exec);

// ---------------------------------------------------------------- host

double NowSeconds();         ///< steady clock
double ProcessCpuSeconds();  ///< CPU time of the whole process
double RssMiB();
std::string LoadAverage();
std::string CompilerId();
std::string BuildType();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
