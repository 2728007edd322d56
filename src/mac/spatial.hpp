#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"

namespace cocoa::mac::spatial {

/// Mutation/traffic statistics for one CellTree. Deliberately not wired into
/// the obs counter registry: the index must be unobservable in `--counters`
/// output (culled and unculled runs diff clean), so index bookkeeping is only
/// visible through Medium::index_stats() and tests/benches that read it
/// directly.
struct CellTreeStats {
    std::uint64_t inserts = 0;
    std::uint64_t removes = 0;
    /// update() calls that crossed a cell boundary and moved the entry.
    std::uint64_t migrations = 0;
    /// update() calls that stayed inside the entry's current cell.
    std::uint64_t in_cell_updates = 0;
    /// refresh_all() sweeps (a checkpoint restore runs one — steady-state
    /// simulation traffic must never trigger one).
    std::uint64_t full_refreshes = 0;
    std::uint64_t queries = 0;
    /// Candidate entries inspected by queries before the exact radius test.
    std::uint64_t candidates_visited = 0;
    /// Window cells rejected by the inline (uncached) disk classification.
    std::uint64_t cells_pruned = 0;
};

/// The `spatial.radius_cache.*` counter family for one RadiusCache. Like
/// CellTreeStats, deliberately NOT registered in the obs counter registry;
/// surfaced through Medium::radius_cache_stats() and read directly by
/// tests/benches.
struct RadiusCacheStats {
    std::uint64_t lookups = 0;        ///< window-mask lookups (dense queries)
    std::uint64_t hits = 0;           ///< masks served from the LRU
    std::uint64_t misses = 0;         ///< masks classified and inserted
    std::uint64_t evictions = 0;      ///< LRU entries displaced at capacity
    std::uint64_t cells_pruned = 0;   ///< window cells skipped via cached masks
    std::uint64_t sparse_bypass = 0;  ///< queries that skipped the cache (sparse tile)
};

/// LRU cache of per-tile effective query windows — the density-adaptive
/// query radius of the geotools exemplar, made *exact*.
///
/// The physical cull radius cannot shrink (a receiver anywhere inside the
/// influence range genuinely affects carrier sense), but the candidate
/// *window* can: most of a 3x3 cell window lies outside the query disk, and
/// a cell whose nearest point is beyond the radius provably contains no
/// candidate. This cache memoizes that per-cell classification. Keys are
/// (cell, quantized sub-cell offset of the query center): the mask is
/// computed conservatively over the whole quantum square, so it is valid for
/// every center that maps to the key — a cleared bit is a proof, never a
/// heuristic. Queries in *dense* neighbourhoods (center-tile population at
/// or above `dense_population`) consult the cache, where one cached mask
/// amortizes over many transmissions from the same quantum; sparse
/// neighbourhoods skip straight to scanning their few candidates
/// (note_sparse_bypass) — that is the density adaptation.
///
/// The LRU is flat: a node array with index links (reserved at configure,
/// filled as keys arrive) plus an open-addressing key table (linear probing,
/// at most half full, grown by doubling while the cache warms). Once the
/// cache is warm a lookup allocates nothing, and a hit or miss touches only
/// a few 16- and 24-byte records.
///
/// Debug builds re-verify every pruned cell against the live slots (the
/// exact-radius oracle assertion in CellTree::for_each_in_radius).
class RadiusCache {
  public:
    /// Sub-cell quantization of the query center: 4x4 quanta per cell.
    /// cell_side / 4 is exact in floating point, and cell boundaries lie on
    /// quantum boundaries, so a quantum square never straddles two cells.
    static constexpr int kQuantaPerSide = 4;

    RadiusCache() = default;

    RadiusCache(const RadiusCache&) = delete;
    RadiusCache& operator=(const RadiusCache&) = delete;

    /// Arms the cache for queries of exactly `radius_m` on a tree with
    /// `cell_side_m` cells (radius <= cell side, so the cached masks cover
    /// the 3x3 window). `dense_population` gates the density adaptation;
    /// `capacity` bounds the LRU. Throws std::invalid_argument on bad
    /// geometry; configure({}) leaves the cache disarmed (handles() false).
    void configure(double cell_side_m, double radius_m, std::size_t capacity,
                   std::uint32_t dense_population);

    /// True when this cache serves queries of exactly `radius_m` (the medium
    /// only ever caches its hot cull radius; other radii take the inline
    /// classification path).
    bool handles(double radius_m) const {
        return capacity_ > 0 && radius_m == radius_m_;
    }
    std::uint32_t dense_population() const { return dense_population_; }

    /// 3x3 window-classification mask for a query centred at `center`,
    /// which lies in cell (ccx, ccy): bit (dy+1)*3 + (dx+1) set means cell
    /// (ccx+dx, ccy+dy) may contain in-radius entries; a cleared bit proves
    /// the whole cell lies outside the radius for every center in the same
    /// quantum square.
    std::uint16_t window_mask(std::int64_t ccx, std::int64_t ccy, geom::Vec2 center);

    /// The LRU key of cell (ccx, ccy)'s sub-cell quantum (sx, sy), each in
    /// [0, kQuantaPerSide): 28 signed bits per cell coordinate (aliasing
    /// would need ~2.7e8 cells of ~100 m each — a 2.7e10 m world), 2 bits
    /// per quantum axis.
    static std::uint64_t mask_key(std::int64_t ccx, std::int64_t ccy, int sx, int sy);

    void note_sparse_bypass() { ++stats_.sparse_bypass; }
    void note_cells_pruned(std::uint64_t n) { stats_.cells_pruned += n; }

    const RadiusCacheStats& stats() const { return stats_; }
    /// Checkpoint restore only — see CellTree::set_stats.
    void set_stats(const RadiusCacheStats& s) { stats_ = s; }
    std::size_t size() const { return nodes_.size(); }

    using Entry = std::pair<std::uint64_t, std::uint16_t>;  ///< (key, mask)

    /// Cached (key, mask) pairs in recency order, most recent first —
    /// checkpointing serializes these so a restored cache is exactly as warm
    /// (same hit/miss/eviction future) as the straight run's was.
    std::vector<Entry> export_entries() const;
    /// Rebuilds the LRU from export_entries() output (most recent first).
    /// Restore only; assumes the cache was configure()d identically. Throws
    /// std::invalid_argument, and leaves the cache empty, unless the list
    /// fits the capacity, its keys are distinct keys window_mask() can
    /// produce, and each mask is the one its key classifies to.
    void import_entries(const std::vector<Entry>& entries);

  private:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /// One cached mask: an LRU list node linked by node index.
    struct Node {
        std::uint64_t key;
        std::uint32_t prev;  ///< toward the most recent; kNone at the head
        std::uint32_t next;  ///< toward the least recent; kNone at the tail
        std::uint16_t mask;
    };
    /// A key-table slot; node == kNone marks it empty.
    struct Bucket {
        std::uint64_t key = 0;
        std::uint32_t node = kNone;
    };

    std::uint16_t classify(std::int64_t ccx, std::int64_t ccy, int sx, int sy) const;
    void clear();
    /// The table slot `key` probes first.
    std::size_t home(std::uint64_t key) const;
    /// Table slot holding `key`, or the empty slot that ends its probe run.
    std::size_t find_bucket(std::uint64_t key) const;
    /// Maps `key` to `node` (key absent), doubling the table first when the
    /// insertion would leave it more than half full.
    void insert_key(std::uint64_t key, std::uint32_t node);
    /// Unmaps `key` (present) by backward-shift deletion: no tombstones.
    void erase_key(std::uint64_t key);
    void unlink(std::uint32_t n);
    void push_front(std::uint32_t n);
    /// Appends a node at the least-recent end (restore order).
    void push_back(std::uint64_t key, std::uint16_t mask);

    double cell_side_m_ = 0.0;
    double quantum_m_ = 0.0;  ///< cell_side / kQuantaPerSide (exact in FP)
    double radius_m_ = -1.0;
    std::size_t capacity_ = 0;
    std::uint32_t dense_population_ = 0;
    /// The LRU's nodes, one per cached key, reused in place on eviction.
    std::vector<Node> nodes_;
    std::uint32_t head_ = kNone;  ///< most recently used
    std::uint32_t tail_ = kNone;  ///< least recently used, evicted next
    /// Open-addressing key -> node table, a power of two in size.
    std::vector<Bucket> table_;
    int table_shift_ = 64;  ///< 64 - log2(table size): the hash keeps the top bits
    RadiusCacheStats stats_;
};

/// Two-level hierarchical spatial index over point entries with dense
/// uint32 ids: a sparse hash of *tiles* (level 1), each tile owning an 8x8
/// block of *cells* (level 0) plus a 64-bit occupancy mask.
///
/// The cell side is chosen by the owner (the medium uses its interference
/// cull radius plus the truncation slack, so its hot queries touch at most a
/// 3x3 cell neighbourhood = at most 4 tiles). Empty space costs nothing:
/// tiles exist only while they hold entries, and a query prunes 64 cells at
/// a time through the occupancy mask before it ever touches a bucket.
///
/// All mutations are incremental and O(1) amortized:
///   - insert/remove keep a per-id back-reference (tile, cell, slot) so
///     removal is a swap-pop, never a scan;
///   - update(id, pos) compares the entry's cached cell and migrates only on
///     a boundary crossing — the steady-state mobility tick does one integer
///     compare per moving entry.
///
/// Queries visit each candidate exactly once and pass the *cached* position
/// to the callback; callers that need the live position (the medium, whose
/// radios answer position() through a provider) re-read it themselves.
/// Iteration order is deterministic (cell-major over the window, insertion
/// order within a bucket) but NOT sorted by id; order-sensitive callers sort
/// afterwards, as the medium does for its CCA schedule.
class CellTree {
  public:
    /// `cell_side_m` > 0 is the leaf cell width. Queries are exact for any
    /// radius: the window is derived from the radius, and window cells
    /// provably outside the query disk are pruned (conservatively padded, so
    /// floating-point bucketing slop can never hide a real candidate).
    explicit CellTree(double cell_side_m);

    CellTree(const CellTree&) = delete;
    CellTree& operator=(const CellTree&) = delete;

    /// Inserts `id` at `pos`. Ids are dense and small (medium attach
    /// indices); inserting an id already present is a logic error (asserted
    /// in debug builds, last write wins otherwise).
    void insert(std::uint32_t id, geom::Vec2 pos);

    /// Removes `id`; no-op when absent (radios can crash during an outage,
    /// which already detached them).
    void remove(std::uint32_t id);

    /// Re-buckets `id` for its new position: an integer compare when the
    /// entry stayed in its cell, a swap-pop + push when it crossed a
    /// boundary. No-op when the id is not present (detached radios keep
    /// moving; they re-enter at their current position on power_on()).
    void update(std::uint32_t id, geom::Vec2 pos);

    bool contains(std::uint32_t id) const {
        return id < entries_.size() && entries_[id].tile != nullptr;
    }
    std::size_t size() const { return size_; }

    /// Calls `fn(id, cached_pos)` for every entry within `radius` of
    /// `center`, plus boundary candidates from window cells the disk
    /// classification could not prune (callers apply their exact predicate;
    /// the medium's fan-out kernel re-tests every candidate).
    ///
    /// With a non-null `cache` armed for this radius, queries in dense
    /// neighbourhoods classify the 3x3 window through the cache's quantized
    /// LRU masks instead of recomputing the per-cell tests; pruning stays
    /// exact either way (and Debug builds re-verify every pruned cell).
    template <typename Fn>
    void for_each_in_radius(geom::Vec2 center, double radius, RadiusCache* cache,
                            Fn&& fn) const {
        ++stats_.queries;
        const std::int64_t ccx = cell_coord(center.x);
        const std::int64_t ccy = cell_coord(center.y);
        const double r2 = radius * radius;

        if (cache != nullptr && cache->handles(radius)) {
            const Tile* center_tile = find_tile(ccx >> kTileShift, ccy >> kTileShift);
            const std::uint32_t population =
                center_tile == nullptr ? 0 : center_tile->population;
            if (population >= cache->dense_population()) {
                const std::uint16_t mask = cache->window_mask(ccx, ccy, center);
                int bit = 0;
                std::uint64_t pruned = 0;
                for (std::int64_t dy = -1; dy <= 1; ++dy) {
                    for (std::int64_t dx = -1; dx <= 1; ++dx, ++bit) {
                        if ((mask & (std::uint16_t{1} << bit)) == 0) {
                            ++pruned;
                            assert_cell_beyond(ccx + dx, ccy + dy, center, r2);
                            continue;
                        }
                        scan_cell(ccx + dx, ccy + dy, fn);
                    }
                }
                cache->note_cells_pruned(pruned);
                return;
            }
            cache->note_sparse_bypass();
        }

        // Inline exact path: window derived from the radius, each cell
        // classified against the query disk (nearest-point test on the
        // padded cell box).
        const std::int64_t reach = window_reach(radius);
        for (std::int64_t cy = ccy - reach; cy <= ccy + reach; ++cy) {
            for (std::int64_t cx = ccx - reach; cx <= ccx + reach; ++cx) {
                if (cell_outside_disk(cx, cy, center, r2)) {
                    ++stats_.cells_pruned;
                    assert_cell_beyond(cx, cy, center, r2);
                    continue;
                }
                scan_cell(cx, cy, fn);
            }
        }
    }

    template <typename Fn>
    void for_each_in_radius(geom::Vec2 center, double radius, Fn&& fn) const {
        for_each_in_radius(center, radius, nullptr, std::forward<Fn>(fn));
    }

    /// Re-reads every present entry's position through `pos_of(id)` and
    /// migrates the stale ones — the medium's post-restore sweep.
    /// O(entries); steady-state code paths use update() instead and tests
    /// pin full_refreshes to zero.
    template <typename PosFn>
    void refresh_all(PosFn&& pos_of) {
        ++stats_.full_refreshes;
        for (std::uint32_t id = 0; id < entries_.size(); ++id) {
            if (entries_[id].tile == nullptr) continue;
            update_present(id, pos_of(id));
        }
    }

    /// Cached position of a present entry (debug/test aid).
    geom::Vec2 cached_position(std::uint32_t id) const { return entries_[id].pos; }

    /// Population of the tile containing `pos` (0 when the tile is empty /
    /// unallocated) — the density signal the radius cache's gate reads.
    std::uint32_t tile_population_at(geom::Vec2 pos) const;

    double cell_side_m() const { return cell_side_m_; }

    const CellTreeStats& stats() const { return stats_; }
    /// Overwrites the bookkeeping counters wholesale. Checkpoint restore
    /// only: the restore-time refresh sweep must not show up in a restored
    /// run's stats, so load_state rebuilds membership first and then stamps
    /// the straight run's counters back on top.
    void set_stats(const CellTreeStats& s) { stats_ = s; }
    /// Tiles currently allocated (empty ones are reclaimed lazily on
    /// removal when their occupancy mask drains).
    std::size_t tile_count() const { return tiles_.size(); }

  private:
    /// 8x8 cells per tile: one occupancy word, and tile lookups amortize
    /// over 64 cells of space.
    static constexpr int kTileShift = 3;
    static constexpr int kTileSide = 1 << kTileShift;

    struct Slot {
        std::uint32_t id;
        geom::Vec2 pos;
    };

    struct Tile {
        std::uint64_t occupancy = 0;
        std::uint32_t population = 0;
        std::vector<Slot> cells[kTileSide * kTileSide];
    };

    /// Back-reference: where an entry currently lives, plus its cached
    /// bucketing position. tile == nullptr means "not present".
    struct Entry {
        Tile* tile = nullptr;
        std::int64_t cx = 0;
        std::int64_t cy = 0;
        std::uint32_t slot = 0;
        geom::Vec2 pos{};
    };

    std::int64_t cell_coord(double v) const;
    static std::uint64_t tile_key(std::int64_t tx, std::int64_t ty);
    static unsigned local_cell(std::int64_t cx, std::int64_t cy);
    Tile* find_tile(std::int64_t tx, std::int64_t ty) const;
    Tile& tile_for(std::int64_t tx, std::int64_t ty);
    void place(std::uint32_t id, std::int64_t cx, std::int64_t cy, geom::Vec2 pos);
    void unplace(std::uint32_t id);
    void update_present(std::uint32_t id, geom::Vec2 pos);

    /// Cells per side the window must extend from the center cell so that
    /// reach * cell_side covers `radius` (>= 1; tolerant of radius ==
    /// cell_side up to FP rounding, where the physical radius always carries
    /// slack of its own).
    std::int64_t window_reach(double radius) const;

    /// True when cell (cx, cy) provably contains no point within sqrt(r2)
    /// of `center`: the nearest point of the cell's box — padded so FP
    /// bucketing slop can never misplace a boundary entry — is beyond the
    /// radius.
    bool cell_outside_disk(std::int64_t cx, std::int64_t cy, geom::Vec2 center,
                           double r2) const;

    /// Visits one cell's slots (tile lookup + occupancy gate + bucket scan).
    template <typename Fn>
    void scan_cell(std::int64_t cx, std::int64_t cy, Fn&& fn) const {
        const Tile* tile = find_tile(cx >> kTileShift, cy >> kTileShift);
        if (tile == nullptr) return;
        const unsigned local = local_cell(cx, cy);
        if ((tile->occupancy & (std::uint64_t{1} << local)) == 0) return;
        for (const Slot& s : tile->cells[local]) {
            ++stats_.candidates_visited;
            fn(s.id, s.pos);
        }
    }

    /// Exact-radius oracle assertion (Debug only): every entry of a pruned
    /// cell really is outside the query disk.
    void assert_cell_beyond(std::int64_t cx, std::int64_t cy, geom::Vec2 center,
                            double r2) const {
#ifndef NDEBUG
        const Tile* tile = find_tile(cx >> kTileShift, cy >> kTileShift);
        if (tile == nullptr) return;
        const unsigned local = local_cell(cx, cy);
        if ((tile->occupancy & (std::uint64_t{1} << local)) == 0) return;
        for (const Slot& s : tile->cells[local]) {
            assert(geom::distance_sq(s.pos, center) > r2 &&
                   "window classification pruned a cell holding an in-radius entry");
        }
#else
        (void)cx;
        (void)cy;
        (void)center;
        (void)r2;
#endif
    }

    double inv_cell_ = 0.0;
    double cell_side_m_ = 0.0;
    std::size_t size_ = 0;
    std::vector<Entry> entries_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Tile>> tiles_;
    mutable CellTreeStats stats_;
};

}  // namespace cocoa::mac::spatial
