#ifndef MDW_CORE_MINI_WAREHOUSE_H_
#define MDW_CORE_MINI_WAREHOUSE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "alloc/disk_allocation.h"
#include "bitmap/index_set.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "core/result_table.h"
#include "fragment/query_planner.h"
#include "fragment/shard_routing.h"
#include "storage/segment_store.h"

namespace mdw {

class ThreadPool;

/// Per-execution controls threaded through MiniWarehouse::ExecuteWithPlan.
struct ExecOptions {
  /// Cooperative cancellation: polled at chunk boundaries (a tripped
  /// token abandons the remaining chunks and the execution surfaces
  /// the token's typed status) and passed to the buffer pool so retry
  /// backoff never sleeps past the query's deadline. The
  /// default-constructed (unarmed) token never trips and costs one
  /// null check per chunk — results stay bit-identical to an
  /// execution without options.
  CancellationToken cancel;
  /// Degraded covered-only execution: answer ONLY the fully-covered
  /// fragments from the measure prefix sums and skip every residual
  /// scan. The result is flagged `degraded` — a correct aggregate of
  /// a *subset* of the query's fragments, never a partial scan of a
  /// fragment. Requires summaries (and fragmentation-aligned grouping).
  bool covered_only = false;
};

/// A fully materialised, in-memory star warehouse at a scale small enough
/// to hold every fact row. It executes star queries three ways — full
/// scan, bitmap-index path, and MDHF fragment-confined path — and is the
/// functional ground truth validating that the fragmentation/planner/index
/// machinery computes exactly the rows a full scan computes. (The
/// full-scale APB-1 configuration is only ever *simulated*; see
/// sim/simulator.h.)
///
/// Physical layout: the constructor permutes the fact columns (and
/// measure vectors) into *fragment-major* order of an MDHF fragmentation
/// — the paper's clustering property (Sec. 4.5) made physical — and keeps
/// a FragId -> [row_begin, row_end) directory, so fragment-confined
/// execution touches only the plan's row ranges (O(selected rows)) and
/// can process ranges as parallel partitions. Every store is clustered:
/// the empty attribute list is the single-fragment clustering, which
/// keeps generation row order. It additionally builds inclusive prefix
/// sums over the measure columns in that physical order, so a run of
/// *fully-covered* fragments [b, e) (every row a hit, per the plan's
/// coverage classification) is answered as P[e] - P[b] without touching
/// the fact columns at all — O(residual rows) instead of O(selected
/// rows).
///
/// Sharding (the paper's disk allocation made physical): with
/// `num_shards` > 1 the constructor consults a DiskAllocation
/// (round robin with optional round_gap/cluster_factor, one "disk" per
/// shard) and lays the store out *shard-major*: each shard owns a
/// contiguous region of the permuted columns/measures/prefix sums holding
/// exactly its allocated fragments in ascending id order, with a
/// shard-local FragId -> row-range directory. Execution routes the plan's
/// fragments to their shards and schedules one affinity task per shard
/// (idle workers steal residual scan chunks from busy shards), merging
/// shard partials in fixed shard order so the whole MdhfExecution record
/// stays bit-identical at any worker count and shard count. A plan routes
/// once per store: the selections of its first multi-fragment execution
/// are memoized on the plan under this store's layout_id() and reused by
/// every later execution of the plan or of its copies.
class MiniWarehouse {
 private:
  /// One resolved bitmap-needing predicate of a plan.
  struct BitmapAccess {
    const Predicate* pred;
    Depth frag_depth;    ///< fragmentation depth of the dim, or -1
    bool same_ancestor;  ///< suffix-only (within-fragment) eval is sound
  };

 public:
  /// Reusable per-batch execution buffers (opaque): pass the same scratch
  /// to consecutive ExecuteWithPlan calls to avoid a heap allocation per
  /// query. Not thread-safe; use one scratch per executing thread.
  class ExecScratch {
   public:
    ExecScratch() = default;

   private:
    friend class MiniWarehouse;
    std::vector<BitmapAccess> accesses_;
  };

  /// Resolved grouping of one execution (derived from the plan):
  /// a fact row's group key is its group-dimension leaf / leaves_per.
  /// Execution-internal, public only so the kernel helpers can name it.
  struct GroupContext {
    bool grouped = false;
    DimId dim = -1;
    std::int64_t leaves_per = 1;
    std::int64_t card = 0;  ///< dense key domain [0, card)
  };

  /// Dense per-chunk group accumulator over the full key domain. Chunk
  /// counts are bounded (a few per lane), so dense beats hashing; the
  /// integer element-wise merge is order-independent, keeping grouped
  /// results bit-identical at any worker x shard count.
  /// Execution-internal, public only so the kernel helpers can name it.
  struct GroupAccum {
    std::vector<std::int64_t> rows;
    std::vector<std::int64_t> units;
    std::vector<std::int64_t> dollars;
    std::vector<std::int64_t> summarized;

    void Reset(std::int64_t card);
    void Tally(std::int64_t key, std::int64_t u, std::int64_t d) {
      const auto k = static_cast<std::size_t>(key);
      ++rows[k];
      units[k] += u;
      dollars[k] += d;
    }
    void TallySummary(std::int64_t key, std::int64_t n, std::int64_t u,
                      std::int64_t d) {
      const auto k = static_cast<std::size_t>(key);
      rows[k] += n;
      summarized[k] += n;
      units[k] += u;
      dollars[k] += d;
    }
    void Merge(const GroupAccum& other);
    /// Sparse key-ascending rows; groups with no matching fact rows are
    /// dropped (SQL GROUP BY emits no row for an empty group).
    std::vector<GroupRow> Compact() const;
  };

  /// Per-execution controls (declared at namespace scope so that
  /// ExecuteWithPlan can default it).
  using ExecOptions = mdw::ExecOptions;

  /// Populates the fact table by sampling each possible dimension-value
  /// combination independently with probability schema.density() (the
  /// APB-1 density semantics), clusters the physical layout
  /// fragment-major under the MDHF fragmentation given by `cluster_attrs`
  /// (empty attrs = the degenerate single-fragment clustering, which
  /// keeps generation row order), and builds all bitmap join indices.
  /// Plans derived from a fragmentation with the same attributes execute
  /// fragment-confined via the row-range directory. `enable_summaries`
  /// additionally builds the measure prefix sums so fully-covered
  /// fragments are answered without scanning rows (false = scan every
  /// selected fragment, for A/B comparisons).
  /// `num_shards` > 1 splits the store into that many physical shards
  /// under `allocation` (num_disks is overridden by num_shards; bitmap
  /// placement is irrelevant to the in-memory store) — see the class
  /// comment for the layout and scheduling consequences.
  ///
  /// `storage` with a non-empty path switches the store to file-backed
  /// mode: each shard's columns, measures, and prefix-sum summaries are
  /// written (or reused) as a page-aligned segment file under
  /// storage.path, the in-RAM copies are dropped, and execution resolves
  /// rows through a buffer pool of storage.pool_pages pages — results
  /// stay bit-identical to the in-RAM store; MdhfExecution additionally
  /// reports pages_read / buffer_hits / bytes_read.
  MiniWarehouse(StarSchema schema, std::uint64_t seed,
                std::vector<FragAttr> cluster_attrs = {},
                bool enable_summaries = true, int num_shards = 1,
                AllocationConfig allocation = {},
                storage::StoreOptions storage = {});

  const StarSchema& schema() const { return schema_; }
  /// The in-RAM fact columns; aborts in file-backed mode (the columns
  /// were dropped after the segments were written — go through the
  /// execution paths, which read via the buffer pool).
  const FactColumns& facts() const;
  const IndexSet& indexes() const { return *indexes_; }
  std::int64_t row_count() const { return row_count_; }

  /// True iff the fact/measure columns live in segment files behind the
  /// buffer pool instead of RAM.
  bool file_backed() const { return store_ != nullptr; }
  /// The segment store backing file-backed mode, or nullptr.
  const storage::SegmentStore* paged_store() const { return store_.get(); }
  /// Mutable segment store, for tools/benchmarks that reset the buffer
  /// pool between runs (cold-cache measurements); nullptr in RAM mode.
  storage::SegmentStore* mutable_paged_store() { return store_.get(); }

  /// ---- Clustered-layout introspection ----

  /// True iff the measure prefix sums exist, i.e. fully-covered fragments
  /// are answered from summaries instead of row scans.
  bool summaries_enabled() const { return summaries_enabled_; }
  /// The clustering fragmentation (never nullptr).
  const Fragmentation* cluster_fragmentation() const {
    return cluster_frag_.get();
  }
  /// True iff `fragmentation` matches the clustered layout (same schema
  /// object, same attribute list), i.e. plans derived from it can run
  /// here. ExecuteWithPlan aborts on any other plan.
  bool ClusteredFor(const Fragmentation& fragmentation) const;
  /// Physical row range [begin, end) of fragment `id` in the clustered
  /// layout.
  std::pair<std::int64_t, std::int64_t> FragmentRows(FragId id) const;

  /// ---- Sharded-layout introspection ----

  /// Number of physical shards (1 = unsharded).
  int num_shards() const { return num_shards_; }
  /// The allocation mapping fragments to shards, or nullptr when
  /// num_shards() == 1.
  const DiskAllocation* shard_allocation() const {
    return shard_alloc_.get();
  }
  /// Shard owning fragment `id` (always 0 when unsharded).
  int ShardOfFragment(FragId id) const;
  /// Contiguous physical row region [begin, end) of shard `s`.
  std::pair<std::int64_t, std::int64_t> ShardRows(int s) const;
  /// Process-unique id (>= 1) of this store's physical layout, taken at
  /// construction: the key under which plans memoize their routing
  /// here (QueryPlan::MemoizedRoute).
  std::uint64_t layout_id() const { return layout_id_; }
  /// Fragments allocated to shard `s`, ascending — their row ranges tile
  /// the shard's region in this order.
  const std::vector<FragId>& ShardFragments(int s) const;

  /// SUM aggregate over the matching rows.
  struct AggregateResult {
    std::int64_t rows = 0;
    std::int64_t units_sold = 0;
    std::int64_t dollar_sales_cents = 0;

    friend bool operator==(const AggregateResult& a,
                           const AggregateResult& b) = default;
  };

  /// Reference execution: scans every fact row and applies the predicates
  /// directly against the dimension hierarchies.
  AggregateResult ExecuteFullScan(const StarQuery& query) const;

  /// Grouped reference execution: the brute-force GROUP BY — one pass over
  /// every fact row, keying each match by its group-dimension ancestor at
  /// the query's GROUP BY depth. Key-ascending, empty groups absent; the
  /// ground truth groupby_test checks the MDHF paths against. Requires
  /// query.grouped(). rows_summarized is 0 in every row (nothing is
  /// answered from summaries here).
  std::vector<GroupRow> ExecuteFullScanGrouped(const StarQuery& query) const;

  /// Bitmap-index execution without fragmentation: intersects the index
  /// selections of all predicates, then aggregates the marked rows.
  AggregateResult ExecuteWithBitmaps(const StarQuery& query) const;

  /// The work counters of an execution, declared once and shared by the
  /// whole-query records (MdhfExecution, QueryOutcome), the per-shard
  /// split (MdhfExecution::shards) and the per-chunk partials; Merge is
  /// the only way they combine, so the per-shard records always sum to
  /// the totals.
  ///
  /// - fragments_processed: plan fragments executed (empty ones
  ///   included).
  /// - fragments_summarized / rows_summarized: the fully-covered
  ///   fragments answered from the measure prefix sums (empty ones
  ///   included) and the rows they contributed without being scanned.
  ///   Zero when summaries are disabled.
  /// - rows_scanned: rows actually scanned, i.e. rows of the *residual*
  ///   fragments (with summaries disabled every processed fragment is
  ///   residual, so this is all rows of the processed fragments).
  /// - The IoCounters base, all zero for an in-RAM store: pages faulted
  ///   from the segment files (demand misses plus pages prefetched for
  ///   this query), pool pins served from cache, bytes faulted, and the
  ///   buffer pool's failure accounting — failed read attempts, extra
  ///   attempts the retry policy issued, and CRC verification failures.
  ///
  /// The logical counters are deterministic: which fragments (hence
  /// rows) belong to a shard is fixed by the allocation at construction.
  /// The I/O counters are NOT part of the bit-identical guarantee across
  /// worker counts: with more than one worker, which chunk faults a
  /// shared boundary page first depends on scheduling (serial execution
  /// is deterministic).
  struct ExecStats : storage::SegmentStore::IoCounters {
    std::int64_t fragments_processed = 0;
    std::int64_t fragments_summarized = 0;
    std::int64_t rows_scanned = 0;
    std::int64_t rows_summarized = 0;

    void Merge(const ExecStats& o) {
      IoCounters::Merge(o);
      fragments_processed += o.fragments_processed;
      fragments_summarized += o.fragments_summarized;
      rows_scanned += o.rows_scanned;
      rows_summarized += o.rows_summarized;
    }

    friend bool operator==(const ExecStats& a, const ExecStats& b) = default;
  };

  /// What a scan chunk, a summary fold or a shard adds to an execution:
  /// its counters, the aggregate of its hits, and the first storage error
  /// its cursors hit. Execution-internal, public only as the base of
  /// MdhfExecution.
  struct Partial : ExecStats {
    AggregateResult result;
    /// First error wins over the merge sequence; when not ok, `result`
    /// is NOT trustworthy (a failed cursor answers zeros so the kernels
    /// run to completion).
    Status status;

    void Merge(const Partial& o) {
      ExecStats::Merge(o);
      result.rows += o.result.rows;
      result.units_sold += o.result.units_sold;
      result.dollar_sales_cents += o.result.dollar_sales_cents;
      status.Update(o.status);
    }

    friend bool operator==(const Partial& a, const Partial& b) = default;
  };

  /// MDHF execution of a plan (counters: see ExecStats). Confines
  /// processing to the plan's fragments, uses bitmaps only for the
  /// predicates the plan says need them, and reports the work actually
  /// touched. When `status` is not ok, `result` (and `groups`) must be
  /// discarded — the Warehouse layer nulls the aggregate. Partials merge
  /// in fixed chunk order, so WHICH error surfaces is deterministic at
  /// any worker count.
  struct MdhfExecution : Partial {
    /// Per-group partials of a grouped execution (plan.grouped()), sparse
    /// and key-ascending; empty for ungrouped plans. `result` stays the
    /// grand total over all groups, so ungrouped consumers keep working
    /// unchanged. Sum of rows / rows_summarized over the groups equals
    /// the record's result.rows / rows_summarized (counter partition).
    std::vector<GroupRow> groups;
    /// True iff this execution ran covered-only degraded mode
    /// (ExecOptions::covered_only): the aggregate covers exactly the
    /// plan's fully-covered fragments and the residual fragments were
    /// never touched. A degraded result is correct for that subset —
    /// callers must treat it as an under-approximation, not the full
    /// answer.
    bool degraded = false;
    /// Plan facts, set on every return (a cancelled execution included).
    int bitmaps_read = 0;  ///< per fragment
    QueryClass query_class = QueryClass::kUnsupported;
    IoClass io_class = IoClass::kIoc2NoSupp;
    /// Per-shard split, index = shard id, summing to the totals. Present
    /// iff num_shards > 1; empty on an unsharded store.
    std::vector<ExecStats> shards;

    /// Skew of the shard work split: max/mean busy work over the shards,
    /// where a shard's busy work is one unit per residual row scanned
    /// plus one per fragment answered from summaries (a summary run
    /// costs O(1) per fragment, not per row). 1.0 = perfectly balanced,
    /// num_shards = all work on one shard; 0 when unsharded or when the
    /// query did no work at all.
    double ShardSkew() const;

    friend bool operator==(const MdhfExecution& a,
                           const MdhfExecution& b) = default;
  };

  /// Executes `query` under `plan` (derived by the caller, typically once
  /// per batch through Warehouse's plan cache) without re-planning. The
  /// plan must come from a fragmentation matching this store's
  /// clustering (ClusteredFor) — anything else aborts — so execution
  /// walks the fragment directory and touches only the plan's row
  /// ranges.
  ///
  /// With `pool` the plan's row ranges are split into tasks (one
  /// affinity queue per shard, idle lanes steal), each accumulating a
  /// private partial merged in fixed order, so the result — counters
  /// included — is identical for any worker count; nullptr runs
  /// serially. `scratch` reuses its buffers instead of allocating per
  /// query (nullptr = allocate locally); a batch loop passes one scratch
  /// to all of its queries. `options` adds cooperative cancellation
  /// and covered-only degradation: when options.cancel trips the
  /// remaining chunks are abandoned and `status` carries the token's
  /// typed error (kDeadlineExceeded/kCancelled) — the result must be
  /// discarded, as for a storage error; a token that trips only after
  /// the last chunk finished leaves the (complete, correct) record
  /// untouched.
  MdhfExecution ExecuteWithPlan(const StarQuery& query, const QueryPlan& plan,
                                const ThreadPool* pool = nullptr,
                                ExecScratch* scratch = nullptr,
                                const ExecOptions& options = {}) const;

 private:
  void Populate(std::uint64_t seed);
  void ClusterByFragment(std::vector<FragAttr> cluster_attrs, int num_shards,
                         AllocationConfig allocation);
  /// Writes (or reuses) the per-shard segment files under `options`,
  /// opens them behind the buffer pool, and drops the in-RAM columns.
  void BuildPagedStore(std::uint64_t seed,
                       const storage::StoreOptions& options);
  void ResolveBitmapAccesses(const StarQuery& query, const QueryPlan& plan,
                             std::vector<BitmapAccess>* out) const;
  /// ExecuteWithPlan after its checks and entry checkpoint: fills `exec`
  /// (empty on entry) with everything but the plan facts.
  void ExecuteFragments(const StarQuery& query, const QueryPlan& plan,
                        const ThreadPool* pool, ExecScratch* scratch,
                        const ExecOptions& options, MdhfExecution* exec) const;
  /// Aggregates rows [begin, end) under the accesses' bitmap filters
  /// (evaluated over the range only) into `partial`, reading measures
  /// from RAM or through per-chunk buffer-pool cursors that count their
  /// I/O into `partial`. One call per scan chunk; safe to run
  /// concurrently on distinct partials. With `groups` non-null every hit
  /// is additionally tallied into its per-row group key (group.dim leaf
  /// / group.leaves_per).
  void ScanChunk(const RowRange& chunk,
                 const std::vector<BitmapAccess>& accesses,
                 const GroupContext& group, const CancellationToken& cancel,
                 Partial* partial, GroupAccum* groups) const;
  /// Executes per-shard selections — selections[i] belongs to shard
  /// first_shard + i — into `exec` (empty on entry): affinity tasks +
  /// stealing on `pool` (serial in shard order without one), fixed-order
  /// merge.
  void ExecuteSharded(std::span<const ShardSelection> selections,
                      int first_shard,
                      const std::vector<BitmapAccess>& accesses,
                      const GroupContext& group, const ThreadPool* pool,
                      const ExecOptions& options, GroupAccum* groups,
                      MdhfExecution* exec) const;
  /// Folds a summary run [begin, end) into `partial` from the prefix
  /// sums. With `groups` non-null the run is additionally credited to
  /// `group_key` (aligned grouped plans: the whole run lies in one group).
  void FoldSummaryRun(const RowRange& run, const CancellationToken& cancel,
                      Partial* partial, std::int64_t group_key,
                      GroupAccum* groups) const;

  StarSchema schema_;
  std::uint64_t layout_id_ = 0;
  std::int64_t row_count_ = 0;
  /// In-RAM columns; emptied (but the store stays authoritative through
  /// store_) in file-backed mode.
  FactColumns facts_;
  std::vector<std::int64_t> units_sold_;
  std::vector<std::int64_t> dollar_sales_cents_;
  std::unique_ptr<IndexSet> indexes_;
  /// File-backed mode: the page-aligned segment files and their buffer
  /// pool; nullptr for the in-RAM store.
  std::unique_ptr<storage::SegmentStore> store_;

  /// Clustered layout: rows of fragment f occupy
  /// [frag_offsets_[r], frag_offsets_[r+1])
  /// where r = frag_rank_[f], the fragment's position in shard-major
  /// order (identity when unsharded, so ranks == ids).
  std::unique_ptr<Fragmentation> cluster_frag_;
  std::vector<std::int64_t> frag_rank_;
  std::vector<std::int64_t> frag_offsets_;

  /// Shard split of the clustered layout. Unsharded stores keep
  /// num_shards_ == 1 with the whole table as shard 0 and no allocation.
  int num_shards_ = 1;
  std::unique_ptr<DiskAllocation> shard_alloc_;
  std::vector<int> shard_of_frag_;                ///< FragId -> shard
  std::vector<std::int64_t> shard_row_begin_;     ///< size num_shards_+1
  std::vector<std::vector<FragId>> shard_fragments_;

  /// Measure prefix sums in clustered row order (size row_count() + 1,
  /// P[0] = 0): sum over physical rows [b, e) is P[e] - P[b]. Built only
  /// with summaries enabled.
  bool summaries_enabled_ = false;
  std::vector<std::int64_t> units_prefix_;
  std::vector<std::int64_t> dollars_prefix_;
};

}  // namespace mdw

#endif  // MDW_CORE_MINI_WAREHOUSE_H_
