#include "core/mini_warehouse.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace mdw {

namespace {

/// Source of MiniWarehouse::layout_id(): never 0, never reused.
std::atomic<std::uint64_t> g_next_layout_id{1};

/// Minimum rows per parallel task: below this, task overhead dominates.
constexpr std::int64_t kMinChunkRows = 4096;

/// Chunk grain for `total` rows over `lanes` parallel lanes: a few chunks
/// per lane for dynamic load balancing (and for cross-shard stealing);
/// never smaller than kMinChunkRows.
std::int64_t ChunkGrain(std::int64_t total, int lanes) {
  const std::int64_t target_chunks = std::max<std::int64_t>(1, lanes) * 4;
  return std::max(kMinChunkRows, (total + target_chunks - 1) / target_chunks);
}

/// Cuts disjoint ascending `ranges` into chunks of roughly `grain` rows,
/// appending to `chunks`.
void CutRanges(const std::vector<RowRange>& ranges, std::int64_t grain,
               std::vector<RowRange>* chunks) {
  for (const auto& r : ranges) {
    for (std::int64_t b = r.begin; b < r.end; b += grain) {
      chunks->push_back({b, std::min(b + grain, r.end)});
    }
  }
}

/// A column reader over an in-RAM vector, with SegmentStore::Cursor's
/// interface: At() indexes the vector (so _GLIBCXX_ASSERTIONS checks
/// every read), reads never fail and there is nothing to prefetch.
class RamCursor {
 public:
  explicit RamCursor(const std::vector<std::int64_t>& column)
      : column_(&column) {}
  std::int64_t At(std::int64_t i) const {
    return (*column_)[static_cast<std::size_t>(i)];
  }
  void PrefetchRun(std::int64_t /*begin*/, std::int64_t /*end*/) {}
  Status status() const { return Status::Ok(); }

 private:
  const std::vector<std::int64_t>* column_;
};

/// The measure pair the scan kernels are templated on, over RAM readers
/// or buffer-pool cursors alike, so the hot loops stay free of per-row
/// virtual dispatch.
template <typename Column>
struct Measures {
  Column units;
  Column dollars;
  std::int64_t Units(std::int64_t row) { return units.At(row); }
  std::int64_t Dollars(std::int64_t row) { return dollars.At(row); }
};

/// A dense group accumulator over the key domain [0, card): slot k holds
/// group key k, so a hit tallies straight into its slot. The sums are
/// integers, so accumulators merge in any order to the same rows.
std::vector<GroupRow> GroupSlots(std::int64_t card) {
  std::vector<GroupRow> slots(static_cast<std::size_t>(card));
  for (std::size_t k = 0; k < slots.size(); ++k) {
    slots[k].key = static_cast<std::int64_t>(k);
  }
  return slots;
}

/// Adds `rows` rows summing to `units` and `dollars` to `group`.
void Tally(GroupRow& group, std::int64_t rows, std::int64_t units,
           std::int64_t dollars) {
  group.rows += rows;
  group.units_sold += units;
  group.dollar_sales_cents += dollars;
}

/// Drops the empty slots in place (SQL GROUP BY emits no row for a group
/// without matching fact rows), leaving sparse key-ascending rows.
void CompactGroups(std::vector<GroupRow>* groups) {
  std::erase_if(*groups, [](const GroupRow& g) { return g.rows == 0; });
}

/// Group sinks the scan kernels are templated on: NoGrouping compiles the
/// per-hit group tally away entirely, so the ungrouped hot loops are
/// byte-for-byte the pre-grouping kernels.
struct NoGrouping {
  void Add(std::int64_t /*row*/, std::int64_t /*units*/,
           std::int64_t /*dollars*/) {}
};

/// Per-row grouping: reads the group dimension's leaf through `leaf` and
/// tallies the hit into its group slot. Used for every grouped scan
/// (aligned or not — on an aligned fragment all rows share the key, and
/// the division is cheaper than threading the fragment key through the
/// chunk cutter).
template <typename LeafOf>
struct RowGrouping {
  LeafOf leaf;
  std::int64_t leaves_per;
  std::vector<GroupRow>* groups;

  void Add(std::int64_t row, std::int64_t units, std::int64_t dollars) {
    Tally((*groups)[static_cast<std::size_t>(leaf(row) / leaves_per)], 1,
          units, dollars);
  }
};

/// Filter words per block: the scan kernel evaluates its bitmap filters
/// 64 words (4096 rows) at a time, in stack words.
constexpr std::int64_t kBlockWords = 64;
constexpr std::int64_t kBlockRows = kBlockWords * 64;

/// Evaluates the accesses' bitmap filters over rows [begin, end), at most
/// kBlockRows of them, into the filter words and returns their count,
/// CeilDiv(end - begin, 64): bit i is set iff row begin + i passes every
/// predicate. A predicate ORs its IN-list values' selections and the
/// predicates AND together; each selection ANDs its bit-slices straight
/// into the words.
template <typename Accesses>
std::int64_t FilterBlock(const IndexSet& indexes, const Accesses& accesses,
                         std::int64_t begin, std::int64_t end,
                         std::uint64_t* filter) {
  const std::int64_t rows = end - begin;
  const std::int64_t n = CeilDiv(rows, 64);
  std::fill_n(filter, n, ~0ULL);
  // The bits past `end` start clear, so every AND keeps them clear.
  if (rows % 64 != 0) filter[n - 1] = (1ULL << (rows % 64)) - 1;
  for (const auto& a : accesses) {
    const Predicate& p = *a.pred;
    const Depth fragment_depth = a.same_ancestor ? a.frag_depth : -1;
    if (p.values.size() == 1) {
      indexes.AndSelectionInto(p.dim, p.depth, p.values.front(),
                               fragment_depth, begin, end, filter);
      continue;
    }
    // filter & (s1 | s2 | ...) as (filter & s1) | (filter & s2) | ...
    std::uint64_t any[kBlockWords] = {};
    std::uint64_t selected[kBlockWords] = {};
    for (const auto value : p.values) {
      std::copy_n(filter, n, selected);
      indexes.AndSelectionInto(p.dim, p.depth, value, fragment_depth, begin,
                               end, selected);
      for (std::int64_t i = 0; i < n; ++i) any[i] |= selected[i];
    }
    std::copy_n(any, n, filter);
  }
  return n;
}

/// The residual-scan kernel: aggregates rows [begin, end) under the
/// accesses' bitmap filters (evaluated over the range only, O(range)).
template <typename Accesses, typename Measures, typename Grouping>
void ProcessRows(const IndexSet& indexes, std::int64_t begin,
                 std::int64_t end, const Accesses& accesses, Measures& m,
                 Grouping& g, MiniWarehouse::Partial* partial) {
  partial->rows_scanned += end - begin;
  // The hits sum into locals, added to the partial once, so the row loops
  // keep the sums in registers whether or not the compiler inlines this
  // kernel into its caller.
  MiniWarehouse::AggregateResult agg;
  const auto hit = [&](std::int64_t row) {
    ++agg.rows;
    const std::int64_t units = m.Units(row);
    const std::int64_t dollars = m.Dollars(row);
    agg.units_sold += units;
    agg.dollar_sales_cents += dollars;
    g.Add(row, units, dollars);
  };
  if (accesses.empty()) {
    // Q1/Q3 clustered hits: fragment membership IS the filter — every row
    // of the range is a hit.
    for (std::int64_t row = begin; row < end; ++row) hit(row);
  } else {
    // Bitmap filter over this range only, one block at a time: O(range),
    // never O(table), and nothing allocated. Hits are gathered in
    // ascending row order.
    std::uint64_t filter[kBlockWords] = {};
    for (std::int64_t b = begin; b < end; b += kBlockRows) {
      const std::int64_t n = FilterBlock(indexes, accesses, b,
                                         std::min(b + kBlockRows, end), filter);
      for (std::int64_t w = 0; w < n; ++w) {
        for (std::uint64_t bits = filter[w]; bits != 0; bits &= bits - 1) {
          hit(b + w * 64 + __builtin_ctzll(bits));
        }
      }
    }
  }
  partial->result.rows += agg.rows;
  partial->result.units_sold += agg.units_sold;
  partial->result.dollar_sales_cents += agg.dollar_sales_cents;
}

}  // namespace

MiniWarehouse::MiniWarehouse(StarSchema schema, std::uint64_t seed,
                             std::vector<FragAttr> cluster_attrs,
                             bool enable_summaries, int num_shards,
                             AllocationConfig allocation,
                             storage::StoreOptions storage)
    : schema_(std::move(schema)),
      layout_id_(g_next_layout_id.fetch_add(1, std::memory_order_relaxed)) {
  Populate(seed);
  ClusterByFragment(std::move(cluster_attrs), num_shards, allocation);
  // Indices are built AFTER the permutation: bit r of every bitmap refers
  // to the clustered physical row r, so range-restricted selections line
  // up with the fragment directory.
  indexes_ = std::make_unique<IndexSet>(schema_, facts_);
  if (enable_summaries) {
    // Measure prefix sums in the clustered order, so any coalesced run of
    // fully-covered fragments [b, e) aggregates as P[e] - P[b].
    const auto rows = static_cast<std::size_t>(row_count());
    const auto prefix_sums = [rows](const std::vector<std::int64_t>& values) {
      std::vector<std::int64_t> sums(rows + 1, 0);
      for (std::size_t r = 0; r < rows; ++r) sums[r + 1] = sums[r] + values[r];
      return sums;
    };
    measures_[kUnitsPrefix] = prefix_sums(measures_[kUnits]);
    measures_[kDollarsPrefix] = prefix_sums(measures_[kDollars]);
    summaries_enabled_ = true;
  }
  if (!storage.path.empty()) BuildPagedStore(seed, storage);
}

const FactColumns& MiniWarehouse::facts() const {
  MDW_CHECK(store_ == nullptr,
            "fact columns are file-backed (dropped from RAM); read them "
            "through the execution paths instead");
  return facts_;
}

void MiniWarehouse::BuildPagedStore(std::uint64_t seed,
                                    const storage::StoreOptions& options) {
  storage::SegmentStore::BuildInput in;
  in.page_size = schema_.physical().page_size_bytes;
  in.tuples_per_page = schema_.physical().TuplesPerPage();
  in.num_dims = schema_.num_dimensions();
  in.has_summaries = summaries_enabled_;
  in.shard_row_begin = shard_row_begin_;

  // The schema hash folds in everything that determines the clustered
  // bytes, so a segment from any other dataset, layout, or allocation
  // fails validation and is rewritten.
  storage::Fnv1a h;
  h.U64(seed);
  h.I64(schema_.num_dimensions());
  const double density = schema_.density();
  h.Bytes(&density, sizeof density);
  for (DimId d = 0; d < schema_.num_dimensions(); ++d) {
    const auto& hier = schema_.dimension(d).hierarchy();
    h.I64(hier.num_levels());
    h.I64(hier.LeafCardinality());
  }
  for (const FragAttr& a : cluster_frag_->attrs()) {
    h.I64(a.dim);
    h.I64(a.depth);
  }
  h.I64(num_shards_);
  // The realised fragment -> shard map captures the allocation policy's
  // entire outcome (round robin, round_gap, cluster_factor, ...).
  for (const int s : shard_of_frag_) h.I64(s);
  h.I64(row_count_);
  h.I64(summaries_enabled_ ? 1 : 0);
  in.schema_hash = h.hash;

  in.shard_fragments.resize(static_cast<std::size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    const std::int64_t base = shard_row_begin_[static_cast<std::size_t>(s)];
    for (const FragId f : shard_fragments_[static_cast<std::size_t>(s)]) {
      const auto rank =
          static_cast<std::size_t>(frag_rank_[static_cast<std::size_t>(f)]);
      in.shard_fragments[static_cast<std::size_t>(s)].push_back(
          {f, frag_offsets_[rank] - base, frag_offsets_[rank + 1] - base});
    }
  }
  // Segment column c holds column id c; the prefix sums exist only with
  // summaries.
  const int last = ColumnOf(summaries_enabled_ ? kDollarsPrefix : kDollars);
  for (int c = 0; c <= last; ++c) in.columns.push_back(&RamColumn(c));
  store_ = std::make_unique<storage::SegmentStore>(options, in);

  // Drop the in-RAM copies — the segments are the backing truth now. The
  // bitmap indexes (built over the same clustered order) stay resident:
  // only the fact/measure/prefix columns are paged.
  for (auto& column : facts_.columns) column = {};
  for (auto& column : measures_) column = {};
}

void MiniWarehouse::Populate(std::uint64_t seed) {
  const std::int64_t max_rows = schema_.MaxFactCount();
  MDW_CHECK(max_rows <= 50'000'000,
            "schema too large to materialise; use the simulator instead");
  const int dims = schema_.num_dimensions();
  facts_.columns.assign(static_cast<std::size_t>(dims), {});

  // Reserve for the expected Binomial(max_rows, density) row count plus
  // four standard deviations (capped at the hard bound max_rows), so
  // population virtually never reallocates.
  const double expected =
      schema_.density() * static_cast<double>(max_rows);
  const double slack =
      4.0 * std::sqrt(expected * std::max(0.0, 1.0 - schema_.density()));
  const auto reserve_rows = static_cast<std::size_t>(std::min<double>(
      static_cast<double>(max_rows), expected + slack + 64.0));
  for (auto& column : facts_.columns) column.reserve(reserve_rows);
  measures_[kUnits].reserve(reserve_rows);
  measures_[kDollars].reserve(reserve_rows);

  Rng rng(seed);
  // Enumerate every leaf-value combination (mixed radix over the leaf
  // cardinalities) and admit it with probability density.
  std::vector<std::int64_t> leaf_cards;
  for (DimId d = 0; d < dims; ++d) {
    leaf_cards.push_back(
        schema_.dimension(d).hierarchy().LeafCardinality());
  }
  std::vector<std::int64_t> combo(static_cast<std::size_t>(dims), 0);
  for (std::int64_t i = 0; i < max_rows; ++i) {
    if (rng.UniformReal() < schema_.density()) {
      for (DimId d = 0; d < dims; ++d) {
        facts_.columns[static_cast<std::size_t>(d)].push_back(
            combo[static_cast<std::size_t>(d)]);
      }
      measures_[kUnits].push_back(rng.Uniform(1, 100));
      measures_[kDollars].push_back(rng.Uniform(100, 100'000));
    }
    // Advance the odometer.
    for (int d = dims - 1; d >= 0; --d) {
      auto& v = combo[static_cast<std::size_t>(d)];
      if (++v < leaf_cards[static_cast<std::size_t>(d)]) break;
      v = 0;
    }
  }
  // Authoritative from here on: facts_ may be dropped in file-backed
  // mode, but the row count is layout-independent.
  row_count_ = facts_.row_count();
}

void MiniWarehouse::ClusterByFragment(std::vector<FragAttr> cluster_attrs,
                                      int num_shards,
                                      AllocationConfig allocation) {
  MDW_CHECK(num_shards >= 1, "need at least one shard");
  cluster_frag_ =
      std::make_unique<Fragmentation>(&schema_, std::move(cluster_attrs));
  const std::int64_t frag_count = cluster_frag_->FragmentCount();
  const std::int64_t rows = row_count();
  const int dims = schema_.num_dimensions();
  num_shards_ = num_shards;

  // Fragment -> shard through the disk allocation (one "disk" per shard,
  // round robin with the configured round_gap/cluster_factor); the
  // trivial single-shard split skips the allocation machinery entirely.
  shard_of_frag_.assign(static_cast<std::size_t>(frag_count), 0);
  if (num_shards_ > 1) {
    allocation.num_disks = num_shards_;
    shard_alloc_ = std::make_unique<DiskAllocation>(
        cluster_frag_.get(), allocation, /*bitmap_count=*/0);
    for (FragId f = 0; f < frag_count; ++f) {
      shard_of_frag_[static_cast<std::size_t>(f)] =
          shard_alloc_->DiskOfFragment(f);
    }
  }

  // Shard-major fragment order: shard by shard, ascending ids within, so
  // each shard owns one contiguous row region whose fragment ranges are
  // ascending — per-shard directory walks coalesce exactly like the
  // unsharded one did.
  shard_fragments_.assign(static_cast<std::size_t>(num_shards_), {});
  for (FragId f = 0; f < frag_count; ++f) {
    shard_fragments_[static_cast<std::size_t>(
                         shard_of_frag_[static_cast<std::size_t>(f)])]
        .push_back(f);
  }
  frag_rank_.assign(static_cast<std::size_t>(frag_count), 0);
  std::int64_t rank = 0;
  for (const auto& frags : shard_fragments_) {
    for (const FragId f : frags) {
      frag_rank_[static_cast<std::size_t>(f)] = rank++;
    }
  }

  // Each row's fragment is computed exactly once, here; queries never
  // re-derive it.
  std::vector<std::int64_t> row_rank(static_cast<std::size_t>(rows));
  std::vector<std::int64_t> leaf(static_cast<std::size_t>(dims));
  for (std::int64_t row = 0; row < rows; ++row) {
    for (DimId d = 0; d < dims; ++d) {
      leaf[static_cast<std::size_t>(d)] =
          facts_.columns[static_cast<std::size_t>(d)]
                        [static_cast<std::size_t>(row)];
    }
    row_rank[static_cast<std::size_t>(row)] = frag_rank_[
        static_cast<std::size_t>(cluster_frag_->FragmentOfRow(leaf))];
  }

  // Counting sort into shard-major, fragment-major order (stable:
  // generation order is preserved within a fragment). frag_offsets_ is
  // indexed by rank, not id.
  frag_offsets_.assign(static_cast<std::size_t>(frag_count) + 1, 0);
  for (const std::int64_t r : row_rank) {
    ++frag_offsets_[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t f = 1; f < frag_offsets_.size(); ++f) {
    frag_offsets_[f] += frag_offsets_[f - 1];
  }
  std::vector<std::int64_t> cursor(frag_offsets_.begin(),
                                   frag_offsets_.end() - 1);
  std::vector<std::int64_t> new_pos(static_cast<std::size_t>(rows));
  for (std::int64_t row = 0; row < rows; ++row) {
    new_pos[static_cast<std::size_t>(row)] =
        cursor[static_cast<std::size_t>(
            row_rank[static_cast<std::size_t>(row)])]++;
  }

  // Shard regions: shard s spans the offsets of its rank interval.
  shard_row_begin_.assign(static_cast<std::size_t>(num_shards_) + 1, 0);
  std::int64_t first_rank = 0;
  for (int s = 0; s < num_shards_; ++s) {
    first_rank +=
        static_cast<std::int64_t>(shard_fragments_[
            static_cast<std::size_t>(s)].size());
    shard_row_begin_[static_cast<std::size_t>(s) + 1] =
        frag_offsets_[static_cast<std::size_t>(first_rank)];
  }

  const auto permute = [&](std::vector<std::int64_t>& column) {
    std::vector<std::int64_t> permuted(static_cast<std::size_t>(rows));
    for (std::int64_t row = 0; row < rows; ++row) {
      permuted[static_cast<std::size_t>(
          new_pos[static_cast<std::size_t>(row)])] =
          column[static_cast<std::size_t>(row)];
    }
    column = std::move(permuted);
  };
  for (auto& column : facts_.columns) permute(column);
  permute(measures_[kUnits]);
  permute(measures_[kDollars]);
}

bool MiniWarehouse::ClusteredFor(const Fragmentation& fragmentation) const {
  return &fragmentation.schema() == &schema_ &&
         fragmentation.attrs() == cluster_frag_->attrs();
}

std::pair<std::int64_t, std::int64_t> MiniWarehouse::FragmentRows(
    FragId id) const {
  MDW_CHECK(id >= 0 && id < cluster_frag_->FragmentCount(),
            "fragment id out of range");
  const auto rank =
      static_cast<std::size_t>(frag_rank_[static_cast<std::size_t>(id)]);
  return {frag_offsets_[rank], frag_offsets_[rank + 1]};
}

int MiniWarehouse::ShardOfFragment(FragId id) const {
  MDW_CHECK(id >= 0 && id < cluster_frag_->FragmentCount(),
            "fragment id out of range");
  return shard_of_frag_[static_cast<std::size_t>(id)];
}

std::pair<std::int64_t, std::int64_t> MiniWarehouse::ShardRows(int s) const {
  MDW_CHECK(s >= 0 && s < num_shards_, "shard out of range");
  return {shard_row_begin_[static_cast<std::size_t>(s)],
          shard_row_begin_[static_cast<std::size_t>(s) + 1]};
}

const std::vector<FragId>& MiniWarehouse::ShardFragments(int s) const {
  MDW_CHECK(s >= 0 && s < num_shards_, "shard out of range");
  return shard_fragments_[static_cast<std::size_t>(s)];
}

double MiniWarehouse::MdhfExecution::ShardSkew() const {
  if (shards.empty()) return 0;
  std::int64_t total = 0;
  std::int64_t max = 0;
  for (const auto& w : shards) {
    const std::int64_t busy = w.rows_scanned + w.fragments_summarized;
    total += busy;
    max = std::max(max, busy);
  }
  if (total == 0) return 0;
  // max / mean, with mean = total / num_shards.
  return static_cast<double>(max) * static_cast<double>(shards.size()) /
         static_cast<double>(total);
}

template <typename Fn>
decltype(auto) MiniWarehouse::WithColumns(Fn&& fn) const {
  if (store_ == nullptr) {
    return fn([this](int column, storage::IoCounters* /*io*/,
                     const CancellationToken& /*cancel*/) {
      return RamCursor(RamColumn(column));
    });
  }
  return fn([store = store_.get()](int column, storage::IoCounters* io,
                                   const CancellationToken& cancel) {
    return store->MakeCursor(column, io, cancel);
  });
}

template <typename OnMatch>
void MiniWarehouse::ReferenceScan(const StarQuery& query, DimId group_dim,
                                  const OnMatch& on_match) const {
  WithColumns([&](const auto& open) {
    // One reader per dimension; a reader touches nothing until read.
    std::vector<decltype(open(0, nullptr, {}))> leaves;
    for (DimId d = 0; d < schema_.num_dimensions(); ++d) {
      leaves.push_back(open(d, nullptr, {}));
    }
    Measures m{open(ColumnOf(kUnits), nullptr, {}),
               open(ColumnOf(kDollars), nullptr, {})};
    for (std::int64_t row = 0; row < row_count_; ++row) {
      bool match = true;
      for (const auto& pred : query.predicates()) {
        const auto& h = schema_.dimension(pred.dim).hierarchy();
        const std::int64_t value = h.AncestorOfLeaf(
            leaves[static_cast<std::size_t>(pred.dim)].At(row), pred.depth);
        if (std::find(pred.values.begin(), pred.values.end(), value) ==
            pred.values.end()) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      const std::int64_t units = m.Units(row);
      const std::int64_t dollars = m.Dollars(row);
      on_match(group_dim < 0
                   ? 0
                   : leaves[static_cast<std::size_t>(group_dim)].At(row),
               units, dollars);
    }
    // The reference paths are ground truth, not serving paths: a storage
    // error here means the test substrate itself is broken, so fail fast
    // instead of returning a silently-zeroed baseline.
    for (const auto& reader : leaves) {
      MDW_CHECK(reader.status().ok(), "reference scan hit a storage error");
    }
    MDW_CHECK(m.units.status().ok() && m.dollars.status().ok(),
              "reference scan hit a storage error");
  });
}

MiniWarehouse::AggregateResult MiniWarehouse::ExecuteFullScan(
    const StarQuery& query) const {
  AggregateResult result;
  ReferenceScan(query, /*group_dim=*/-1,
                [&](std::int64_t /*group_leaf*/, std::int64_t units,
                    std::int64_t dollars) {
                  ++result.rows;
                  result.units_sold += units;
                  result.dollar_sales_cents += dollars;
                });
  return result;
}

std::vector<GroupRow> MiniWarehouse::ExecuteFullScanGrouped(
    const StarQuery& query) const {
  MDW_CHECK(query.grouped(), "ExecuteFullScanGrouped needs a GROUP BY");
  const GroupBy gb = *query.group_by();
  MDW_CHECK(gb.dim >= 0 && gb.dim < schema_.num_dimensions(),
            "GROUP BY dimension out of range");
  const auto& gh = schema_.dimension(gb.dim).hierarchy();
  MDW_CHECK(gb.depth >= 0 && gb.depth < gh.num_levels(),
            "GROUP BY level out of range");
  std::vector<GroupRow> groups = GroupSlots(gh.Cardinality(gb.depth));
  const std::int64_t leaves_per = gh.LeavesPer(gb.depth);
  ReferenceScan(query, gb.dim,
                [&](std::int64_t group_leaf, std::int64_t units,
                    std::int64_t dollars) {
                  Tally(groups[static_cast<std::size_t>(group_leaf /
                                                        leaves_per)],
                        1, units, dollars);
                });
  CompactGroups(&groups);
  return groups;
}

MiniWarehouse::AggregateResult MiniWarehouse::ExecuteWithBitmaps(
    const StarQuery& query) const {
  BitVector hits(row_count());
  hits.SetAll();
  for (const auto& pred : query.predicates()) {
    BitVector pred_rows(row_count());
    for (const auto value : pred.values) {
      pred_rows |= indexes_->Select(pred.dim, pred.depth, value);
    }
    hits &= pred_rows;
  }
  return WithColumns([&](const auto& open) {
    Measures m{open(ColumnOf(kUnits), nullptr, {}),
               open(ColumnOf(kDollars), nullptr, {})};
    AggregateResult result;
    hits.ForEachSetBit([&](std::int64_t row) {
      ++result.rows;
      result.units_sold += m.Units(row);
      result.dollar_sales_cents += m.Dollars(row);
    });
    // Ground truth, not a serving path: fail fast on storage errors.
    MDW_CHECK(m.units.status().ok() && m.dollars.status().ok(),
              "bitmap reference execution hit a storage error");
    return result;
  });
}

MiniWarehouse::MdhfExecution MiniWarehouse::ExecuteWithPlan(
    const StarQuery& query, const QueryPlan& plan, const ThreadPool* pool,
    ExecScratch* scratch, const ExecOptions& options) const {
  MDW_CHECK(ClusteredFor(plan.fragmentation()),
            "plan's fragmentation does not match this warehouse's "
            "clustering (it must share the schema object and the "
            "attribute list)");
  MDW_CHECK(!options.covered_only ||
                (summaries_enabled_ &&
                 (!plan.grouped() || plan.AlignedGrouping())),
            "covered-only degradation requires summaries (and "
            "fragmentation-aligned grouping)");

  MdhfExecution exec;
  if (options.cancel.ShouldStop()) {
    // Entry checkpoint: a token tripped before execution starts must
    // yield the typed status even when the query would be answered
    // entirely from summaries (the covered path runs no cancellable scan
    // chunks).
    exec.status = options.cancel.CancelStatus();
  } else {
    ExecuteFragments(query, plan, pool, scratch, options, &exec);
  }
  // Plan facts, on every return.
  exec.query_class = plan.query_class();
  exec.io_class = plan.io_class();
  exec.bitmaps_read = plan.BitmapsPerFragment();
  exec.fragments_processed = plan.FragmentCount();
  return exec;
}

void MiniWarehouse::ExecuteFragments(const StarQuery& query,
                                     const QueryPlan& plan,
                                     const ThreadPool* pool,
                                     ExecScratch* scratch,
                                     const ExecOptions& options,
                                     MdhfExecution* exec) const {
  ExecScratch local;
  ExecScratch& s = scratch != nullptr ? *scratch : local;
  ResolveBitmapAccesses(query, plan, &s.accesses_);
  const std::vector<BitmapAccess>& accesses = s.accesses_;
  // A grouped execution tallies into exec->groups, one slot per key,
  // compacted in place at the end.
  std::vector<GroupRow>* groups = nullptr;
  if (plan.grouped()) {
    exec->groups = GroupSlots(plan.group_card());
    groups = &exec->groups;
  }
  // A summary run's prefix-sum fold cannot split its rows across groups,
  // so grouping below the fragmentation level (or on a non-fragmentation
  // dimension) forces every selected fragment onto the scan path.
  const bool use_summaries =
      summaries_enabled_ && (!plan.grouped() || plan.AlignedGrouping());

  if (plan.FragmentCount() == 1) {
    // Single-fragment plan (the paper's IOC1-opt shape): the one fragment
    // id falls out of the slices directly, skipping routing and its
    // odometer enumeration — a fully-covered fragment is then three
    // prefix-sum lookups, a residual one a one-entry shard selection.
    FragId id = 0;
    bool covered = plan.coverable();
    for (int i = 0; i < cluster_frag_->num_attrs(); ++i) {
      const std::int64_t c = plan.slice(i).front();
      MDW_CHECK(c >= 0 && c < cluster_frag_->CardOf(i),
                "coordinate out of range");  // as FragmentIdOf enforces
      id = id * cluster_frag_->CardOf(i) + c;
      covered = covered && plan.covered(i).front();
    }
    const auto rank =
        static_cast<std::size_t>(frag_rank_[static_cast<std::size_t>(id)]);
    const RowRange rows{frag_offsets_[rank], frag_offsets_[rank + 1]};
    const int shard = shard_of_frag_[static_cast<std::size_t>(id)];
    if (use_summaries && covered) {
      const std::int64_t gkey =
          plan.AlignedGrouping() ? plan.GroupOfFragment(id) : -1;
      FoldSummaryRun(rows, options.cancel, exec, gkey, groups);
      exec->fragments_processed = 1;
      exec->fragments_summarized = 1;
      if (num_shards_ > 1) {
        exec->shards.assign(static_cast<std::size_t>(num_shards_), {});
        exec->shards[static_cast<std::size_t>(shard)] = *exec;
      }
    } else {
      ShardSelection selection;
      selection.fragments = 1;
      if (rows.rows() > 0) selection.scan.push_back(rows);
      ExecuteSharded({&selection, 1}, shard, accesses, plan, pool, options,
                     groups, exec);
    }
  } else {
    // Directory walk: the plan's fragments are routed to their shards and
    // map to physical row ranges; within a shard, adjacent selected
    // fragments coalesce into maximal runs (fragment ids arrive in
    // ascending allocation order, and the shard's layout is
    // fragment-major, so per-shard ranges are ascending and disjoint).
    // Fully-covered fragments split off into summary runs answered from
    // the prefix sums; residual fragments keep the range-scan + bitmap
    // path. The routing depends only on the plan and this layout, so the
    // plan memoizes it: only its first execution here routes.
    QueryPlan::Route route = plan.MemoizedRoute(layout_id_, use_summaries);
    if (route == nullptr) {
      route = std::make_shared<const std::vector<ShardSelection>>(
          RouteSelectionToShards(
              plan, num_shards_, use_summaries,
              [this](FragId id) {
                return shard_of_frag_[static_cast<std::size_t>(id)];
              },
              [this](FragId id) {
                const auto r = static_cast<std::size_t>(
                    frag_rank_[static_cast<std::size_t>(id)]);
                return std::pair{frag_offsets_[r], frag_offsets_[r + 1]};
              }));
      plan.MemoizeRoute(layout_id_, use_summaries, route);
    }
    ExecuteSharded(*route, /*first_shard=*/0, accesses, plan, pool, options,
                   groups, exec);
  }
  if (groups != nullptr) CompactGroups(groups);
  exec->degraded = options.covered_only;
}

void MiniWarehouse::ResolveBitmapAccesses(
    const StarQuery& query, const QueryPlan& plan,
    std::vector<BitmapAccess>* out) const {
  const Fragmentation& fragmentation = plan.fragmentation();
  std::vector<BitmapAccess>& accesses = *out;
  accesses.clear();
  for (const auto& access : plan.accesses()) {
    if (!access.needs_bitmap) continue;
    const Predicate* pred = query.PredicateOn(access.dim);
    MDW_CHECK(pred != nullptr, "plan access without predicate");
    const Depth frag_depth = fragmentation.FragDepthOf(access.dim);
    // Suffix-only evaluation (skipping the prefix bits shared within a
    // fragment) is sound only if every IN-list value lies below the *same*
    // fragmentation-level ancestor; a foreign suffix pattern would
    // otherwise match unrelated rows inside the other selected fragments.
    const auto& h = schema_.dimension(access.dim).hierarchy();
    bool same_ancestor = frag_depth >= 0;
    if (frag_depth >= 0) {
      const std::int64_t first =
          h.Ancestor(pred->values.front(), pred->depth, frag_depth);
      for (const auto value : pred->values) {
        if (h.Ancestor(value, pred->depth, frag_depth) != first) {
          same_ancestor = false;
          break;
        }
      }
    }
    accesses.push_back({pred, frag_depth, same_ancestor});
  }
}

void MiniWarehouse::ScanChunk(const RowRange& chunk,
                              const std::vector<BitmapAccess>& accesses,
                              const QueryPlan& plan,
                              const CancellationToken& cancel,
                              Partial* partial,
                              std::vector<GroupRow>* groups) const {
  const auto [begin, end] = chunk;
  WithColumns([&](const auto& open) {
    // The chunk's readers count their I/O straight into its partial.
    Measures m{open(ColumnOf(kUnits), partial, cancel),
               open(ColumnOf(kDollars), partial, cancel)};
    if (accesses.empty()) {
      // Unfiltered range: every page will be touched, so read ahead in
      // coalesced runs. Filtered scans skip prefetch — they fault only
      // the pages that actually hold hits.
      m.units.PrefetchRun(begin, end);
      m.dollars.PrefetchRun(begin, end);
    }
    if (groups == nullptr) {
      NoGrouping g;
      ProcessRows(*indexes_, begin, end, accesses, m, g, partial);
    } else {
      // Grouped scans read the group dimension's leaf column through its
      // own reader (its I/O and status fold into the same partial).
      auto keys = open(plan.group_by()->dim, partial, cancel);
      if (accesses.empty()) keys.PrefetchRun(begin, end);
      const auto leaf = [&keys](std::int64_t row) { return keys.At(row); };
      RowGrouping<decltype(leaf)> g{leaf, plan.group_leaves_per(), groups};
      ProcessRows(*indexes_, begin, end, accesses, m, g, partial);
      partial->status.Update(keys.status());
    }
    partial->status.Update(m.units.status());
    partial->status.Update(m.dollars.status());
  });
}

void MiniWarehouse::FoldSummaryRun(const RowRange& run,
                                   const CancellationToken& cancel,
                                   Partial* partial, std::int64_t group_key,
                                   std::vector<GroupRow>* groups) const {
  partial->result.rows += run.rows();
  partial->rows_summarized += run.rows();
  // The prefix-sum columns answer the covered run from two values per
  // measure (file-backed: at most two pages each).
  const auto [du, dd] = WithColumns([&](const auto& open) {
    auto units = open(ColumnOf(kUnitsPrefix), partial, cancel);
    auto dollars = open(ColumnOf(kDollarsPrefix), partial, cancel);
    const std::int64_t u = units.At(run.end) - units.At(run.begin);
    const std::int64_t d = dollars.At(run.end) - dollars.At(run.begin);
    partial->status.Update(units.status());
    partial->status.Update(dollars.status());
    return std::pair{u, d};
  });
  partial->result.units_sold += du;
  partial->result.dollar_sales_cents += dd;
  if (groups != nullptr && group_key >= 0) {
    GroupRow& g = (*groups)[static_cast<std::size_t>(group_key)];
    Tally(g, run.rows(), du, dd);
    g.rows_summarized += run.rows();
  }
}

void MiniWarehouse::ExecuteSharded(std::span<const ShardSelection> selections,
                                   int first_shard,
                                   const std::vector<BitmapAccess>& accesses,
                                   const QueryPlan& plan,
                                   const ThreadPool* pool,
                                   const ExecOptions& options,
                                   std::vector<GroupRow>* groups,
                                   MdhfExecution* exec) const {
  // Cut every shard's scan ranges with ONE global grain (a few chunks per
  // lane across all shards), so stealing has granularity even when one
  // shard holds most of the work. Covered-only degraded execution drops
  // the scan side entirely — residual fragments are skipped, not
  // partially scanned — leaving just the summary folds below.
  const int lanes = ThreadPool::Lanes(pool);
  std::int64_t total_scan = 0;
  std::size_t scan_ranges = 0;
  for (const auto& sel : selections) {
    total_scan += sel.ScanRows();
    scan_ranges += sel.scan.size();
  }
  const std::int64_t grain = ChunkGrain(total_scan, lanes);
  // Shard s's chunks are chunks[first_chunk[s] .. first_chunk[s + 1]),
  // queue s of the parallel loop.
  std::vector<RowRange> chunks;
  std::vector<std::size_t> first_chunk(selections.size() + 1, 0);
  std::vector<std::int64_t> queue_sizes(selections.size(), 0);
  if (!options.covered_only) {
    chunks.reserve(static_cast<std::size_t>(total_scan / grain) +
                   scan_ranges);
    for (std::size_t s = 0; s < selections.size(); ++s) {
      CutRanges(selections[s].scan, grain, &chunks);
      first_chunk[s + 1] = chunks.size();
      queue_sizes[s] =
          static_cast<std::int64_t>(first_chunk[s + 1] - first_chunk[s]);
    }
  }

  // One private partial per chunk, read only by the fixed-order merge
  // below, so the record is bit-identical at any worker count. Grouped
  // hits tally per lane: lane 0 into `groups`, every other lane into its
  // own accumulator, made on its first chunk and merged after the join —
  // integer sums, so the merge order never changes the grouped rows.
  std::vector<Partial> partials(chunks.size());
  std::vector<std::vector<GroupRow>> lane_groups(
      groups == nullptr ? 0 : static_cast<std::size_t>(lanes - 1));
  bool all_ran = ThreadPool::ParallelForQueues(
      pool, queue_sizes,
      [&](int lane, int s, std::int64_t c) {
        const std::size_t i = first_chunk[static_cast<std::size_t>(s)] +
                              static_cast<std::size_t>(c);
        std::vector<GroupRow>* g = groups;
        if (g != nullptr && lane > 0) {
          g = &lane_groups[static_cast<std::size_t>(lane - 1)];
          if (g->empty()) *g = GroupSlots(plan.group_card());
        }
        ScanChunk(chunks[i], accesses, plan, options.cancel, &partials[i], g);
      },
      options.cancel);
  for (const auto& lane : lane_groups) {
    // Scans summarize no rows, so three sums per slot merge a lane.
    for (std::size_t k = 0; k < lane.size(); ++k) {
      Tally((*groups)[k], lane[k].rows, lane[k].units_sold,
            lane[k].dollar_sales_cents);
    }
  }

  // Fixed-order merge: shards ascending; within a shard, scan chunks in
  // range order, then the shard's summary runs — all-integer sums, one
  // merge sequence regardless of scheduling.
  if (num_shards_ > 1) {
    exec->shards.assign(static_cast<std::size_t>(num_shards_), {});
  }
  for (std::size_t s = 0; s < selections.size(); ++s) {
    const ShardSelection& sel = selections[s];
    Partial shard;
    shard.fragments_processed = sel.fragments;
    shard.fragments_summarized = sel.fragments_covered;
    for (std::size_t i = first_chunk[s]; i < first_chunk[s + 1]; ++i) {
      shard.Merge(partials[i]);
    }
    for (std::size_t r = 0; r < sel.summary.size(); ++r) {
      // A tripped token abandons the remaining summary folds too — the
      // typed status below tells the caller the record is incomplete.
      if (!all_ran || options.cancel.ShouldStop()) {
        all_ran = false;
        break;
      }
      FoldSummaryRun(sel.summary[r], options.cancel, &shard,
                     sel.summary_group[r], groups);
    }
    exec->Merge(shard);
    if (!exec->shards.empty()) {
      exec->shards[static_cast<std::size_t>(first_shard) + s] = shard;
    }
  }
  // Only an actually-abandoned chunk or fold poisons the record: a token
  // that trips after the last one finished changes nothing.
  if (!all_ran) exec->status.Update(options.cancel.CancelStatus());
}

}  // namespace mdw
