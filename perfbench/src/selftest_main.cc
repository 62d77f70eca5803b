// Self-tests of the benchmark harness: workload generation, percentile and
// span arithmetic, and the coverage classes the workloads rely on. Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/mdw.h"
#include "harness.h"
#include "trace.h"

namespace pb = perfbench;

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
    }                                                                  \
  } while (0)

std::vector<std::string> SequenceText(const pb::SqlWorkload& w) {
  std::vector<std::string> out;
  for (const auto s : w.sequence) out.push_back(w.statements[s]);
  return out;
}

void GenerationIsSeeded() {
  for (const auto wl : {pb::Workload::kSqlCovered, pb::Workload::kSqlScan}) {
    const auto a = SequenceText(pb::MakeSqlWorkload(wl, 7));
    const auto b = SequenceText(pb::MakeSqlWorkload(wl, 7));
    const auto c = SequenceText(pb::MakeSqlWorkload(wl, 8));
    EXPECT(a == b);
    EXPECT(a != c);
    EXPECT(static_cast<std::int64_t>(a.size()) == pb::SequenceLength(wl));
  }
  const mdw::StarSchema schema = pb::MakeBenchSchema();
  const auto same = [](const pb::ServeWorkload& x,
                        const pb::ServeWorkload& y) {
    if (x.config.deadline_vt != y.config.deadline_vt) return false;
    for (int w = 0; w < pb::kServeWindows; ++w) {
      const auto a = pb::ServeWindow(x, w);
      const auto b = pb::ServeWindow(y, w);
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].vt != b[i].vt || a[i].stream != b[i].stream ||
            mdw::CanonicalQuerySignature(a[i].query) !=
                mdw::CanonicalQuerySignature(b[i].query)) {
          return false;
        }
      }
    }
    return true;
  };
  EXPECT(same(pb::MakeServeWorkload(schema, 7),
              pb::MakeServeWorkload(schema, 7)));
  EXPECT(!same(pb::MakeServeWorkload(schema, 7),
               pb::MakeServeWorkload(schema, 8)));
}

void ScanAndPagedShareTheSequence() {
  for (const std::uint64_t seed : {1ull, 2ull, 99ull}) {
    EXPECT(SequenceText(pb::MakeSqlWorkload(pb::Workload::kSqlScan, seed)) ==
           SequenceText(pb::MakeSqlWorkload(pb::Workload::kSqlPaged, seed)));
  }
}

void ClassSharesAreExact() {
  for (const auto wl : {pb::Workload::kSqlCovered, pb::Workload::kSqlScan}) {
    const auto& classes = pb::ClassesOf(wl);
    int total = 0;
    for (const auto& c : classes) total += c.share;
    EXPECT(total == pb::kSharesTotal);
    const pb::SqlWorkload w = pb::MakeSqlWorkload(wl, 3);
    std::vector<std::int64_t> count(classes.size(), 0);
    for (const auto s : w.sequence) {
      ++count[static_cast<std::size_t>(w.statement_class[s])];
    }
    for (std::size_t c = 0; c < classes.size(); ++c) {
      EXPECT(count[c] ==
             pb::SequenceLength(wl) * classes[c].share / pb::kSharesTotal);
    }
  }
}

void EveryStatementParses() {
  const mdw::StarSchema schema = pb::MakeBenchSchema();
  for (const auto wl : {pb::Workload::kSqlCovered, pb::Workload::kSqlScan}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      const pb::SqlWorkload w = pb::MakeSqlWorkload(wl, seed);
      for (const auto& sql : w.statements) {
        const auto q = mdw::ParseSql(schema, sql);
        if (!q.ok()) std::printf("  %s: %s\n", sql.c_str(),
                                 q.status().ToString().c_str());
        EXPECT(q.ok());
      }
    }
  }
}

void CoverageOfClasses() {
  const mdw::Warehouse wh(pb::BenchConfig(pb::Workload::kSqlScan));
  EXPECT(wh.materialized()->row_count() == 2072514);
  EXPECT(wh.fragmentation().FragmentCount() == 2304);
  for (const auto wl : {pb::Workload::kSqlCovered, pb::Workload::kSqlScan}) {
    const pb::SqlWorkload w = pb::MakeSqlWorkload(wl, 5);
    // Two pool statements of every class.
    std::vector<int> seen(w.class_names.size(), 0);
    for (std::size_t s = 0; s < w.statements.size(); ++s) {
      const auto c = static_cast<std::size_t>(w.statement_class[s]);
      if (seen[c]++ >= 2) continue;
      const auto outcome = wh.ExecuteSql(w.statements[s]);
      EXPECT(outcome.ok() && outcome->status.ok());
      if (!outcome.ok()) continue;
      if (wl == pb::Workload::kSqlCovered) {
        EXPECT(outcome->rows_scanned == 0);
        EXPECT(outcome->fragments_summarized ==
               outcome->fragments_processed);
      } else {
        EXPECT(outcome->rows_scanned > 0);
      }
    }
  }
}

void NearestRankPercentiles() {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  EXPECT(pb::NearestRank(v, 50) == 500.0);
  EXPECT(pb::NearestRank(v, 99) == 990.0);  // exactly 10 samples beyond
  v.pop_back();                             // 999 samples: 9 beyond p99
  EXPECT(!pb::NearestRank(v, 99).has_value());
  EXPECT(pb::NearestRank(v, 99, 9).has_value());
  EXPECT(!pb::NearestRank(std::vector<double>(100, 1.0), 99).has_value());
  EXPECT(!pb::NearestRank({}, 50, 0).has_value());
  EXPECT(pb::NearestRankIndex(20, 90) == 18);
  EXPECT(pb::Median({3, 1, 2}) == 2.0);
  EXPECT(pb::Median({4, 1, 2, 3}) == 2.5);
}

void SpanArithmetic() {
  // root [0, 100); children [10, 30) and [20, 50) overlap; [90, 120)
  // reaches past the root and is clipped to [90, 100).
  std::vector<pb::Span> spans = {{1, "root", 0, 100, -1},
                                 {1, "a", 10, 30, 0},
                                 {1, "b", 20, 50, 0},
                                 {1, "c", 90, 120, 0},
                                 {1, "d", 22, 28, 1}};
  const auto self = pb::SelfTimesNs(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[4] == 6);
  EXPECT(!pb::ChildrenNest(spans));  // "c" ends after its parent
  spans[3].end_ns = 100;
  EXPECT(pb::ChildrenNest(spans));
  spans[4].request = 2;  // a child of another request
  EXPECT(!pb::ChildrenNest(spans));

  pb::SpanRecorder rec(8);
  const auto root = rec.Open(7, "root");
  const auto child = rec.Open(7, "child", root);
  rec.Close(child);
  rec.Close(root);
  EXPECT(pb::ChildrenNest(rec.spans()));
  const auto recorded = pb::SelfTimesNs(rec.spans());
  EXPECT(recorded[0] + rec.spans()[1].DurationNs() ==
         rec.spans()[0].DurationNs());
}

}  // namespace

int main() {
  GenerationIsSeeded();
  ScanAndPagedShareTheSequence();
  ClassSharesAreExact();
  EveryStatementParses();
  NearestRankPercentiles();
  SpanArithmetic();
  CoverageOfClasses();
  std::printf("perfbench self-tests: %s (%d failures)\n",
              failures == 0 ? "PASSED" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
