#include "mac/spatial.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace cocoa::mac::spatial {

namespace {

/// Conservative geometry pad (metres) for window classification: entries are
/// bucketed by floor(pos * inv_cell), whose rounding can park a boundary
/// point a few ulps outside its cell's nominal box, and the query center's
/// sub-cell offset carries the same slop. A micron of padding dwarfs both
/// (coordinates are metres, worlds are kilometres) while being statistically
/// invisible against the ~100 m cull radius.
constexpr double kGeometryPadM = 1e-6;

/// The 28-bit cell coordinate at bit `shift` of a key, sign-extended.
std::int64_t key_cell(std::uint64_t key, int shift) {
    return static_cast<std::int64_t>(((key >> shift) & 0xfffffffull) << 36) >> 36;
}

/// Key-table size at configure and after a restore clears the cache; the
/// table doubles from here while the LRU fills.
constexpr std::size_t kMinBuckets = 64;

}  // namespace

void RadiusCache::configure(double cell_side_m, double radius_m,
                            std::size_t capacity,
                            std::uint32_t dense_population) {
    if (capacity == 0) {  // disarm
        capacity_ = 0;
        radius_m_ = -1.0;
        clear();
        return;
    }
    if (!(cell_side_m > 0.0) || !(radius_m > 0.0) || radius_m > cell_side_m) {
        throw std::invalid_argument(
            "RadiusCache: need 0 < radius <= cell side for 3x3 window masks");
    }
    cell_side_m_ = cell_side_m;
    quantum_m_ = cell_side_m / kQuantaPerSide;
    radius_m_ = radius_m;
    capacity_ = capacity;
    dense_population_ = dense_population;
    clear();
    nodes_.reserve(capacity_);
}

void RadiusCache::clear() {
    nodes_.clear();
    head_ = kNone;
    tail_ = kNone;
    table_.assign(kMinBuckets, Bucket{});
    table_shift_ = 64 - std::countr_zero(kMinBuckets);
}

std::size_t RadiusCache::home(std::uint64_t key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi spread the packed
    // (cell, quantum) keys over the table.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> table_shift_);
}

std::size_t RadiusCache::find_bucket(std::uint64_t key) const {
    const std::size_t m = table_.size() - 1;
    std::size_t i = home(key);
    while (table_[i].node != kNone && table_[i].key != key) i = (i + 1) & m;
    return i;
}

void RadiusCache::insert_key(std::uint64_t key, std::uint32_t node) {
    // nodes_ already holds `node`, so after this insertion the table maps
    // nodes_.size() keys.
    if (2 * nodes_.size() > table_.size()) {
        table_.assign(2 * table_.size(), Bucket{});
        --table_shift_;
        for (std::uint32_t n = head_; n != kNone; n = nodes_[n].next) {
            table_[find_bucket(nodes_[n].key)] = Bucket{nodes_[n].key, n};
        }
    }
    table_[find_bucket(key)] = Bucket{key, node};
}

void RadiusCache::erase_key(std::uint64_t key) {
    const std::size_t m = table_.size() - 1;
    std::size_t hole = find_bucket(key);
    assert(table_[hole].node != kNone && "RadiusCache::erase_key: key not mapped");
    // Backward shift: a later slot of the probe run moves into the hole when
    // the hole lies on its probe path (no farther from it than its home).
    for (std::size_t j = (hole + 1) & m; table_[j].node != kNone; j = (j + 1) & m) {
        if (((j - home(table_[j].key)) & m) >= ((j - hole) & m)) {
            table_[hole] = table_[j];
            hole = j;
        }
    }
    table_[hole] = Bucket{};
}

void RadiusCache::unlink(std::uint32_t n) {
    const Node& x = nodes_[n];
    if (x.prev != kNone) {
        nodes_[x.prev].next = x.next;
    } else {
        head_ = x.next;
    }
    if (x.next != kNone) {
        nodes_[x.next].prev = x.prev;
    } else {
        tail_ = x.prev;
    }
}

void RadiusCache::push_front(std::uint32_t n) {
    nodes_[n].prev = kNone;
    nodes_[n].next = head_;
    if (head_ != kNone) {
        nodes_[head_].prev = n;
    } else {
        tail_ = n;
    }
    head_ = n;
}

void RadiusCache::push_back(std::uint64_t key, std::uint16_t mask) {
    const auto n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{key, tail_, kNone, mask});
    insert_key(key, n);
    if (tail_ != kNone) {
        nodes_[tail_].next = n;
    } else {
        head_ = n;
    }
    tail_ = n;
}

std::vector<RadiusCache::Entry> RadiusCache::export_entries() const {
    std::vector<Entry> out;
    out.reserve(nodes_.size());
    for (std::uint32_t n = head_; n != kNone; n = nodes_[n].next) {
        out.emplace_back(nodes_[n].key, nodes_[n].mask);
    }
    return out;
}

void RadiusCache::import_entries(const std::vector<Entry>& entries) {
    clear();
    if (entries.size() > capacity_) {
        throw std::invalid_argument(std::to_string(entries.size()) +
                                    " entries exceed the capacity of " +
                                    std::to_string(capacity_));
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto [key, mask] = entries[i];
        const std::int64_t ccx = key_cell(key, 36);
        const std::int64_t ccy = key_cell(key, 8);
        const int sx = static_cast<int>((key >> 2) & 3);
        const int sy = static_cast<int>(key & 3);
        std::string why;
        if (mask_key(ccx, ccy, sx, sy) != key) {
            why = "is no (cell, quantum) key";
        } else if (table_[find_bucket(key)].node != kNone) {
            why = "repeats an earlier key";
        } else if (classify(ccx, ccy, sx, sy) != mask) {
            why = "holds mask " + std::to_string(mask) + " where its key classifies to " +
                  std::to_string(classify(ccx, ccy, sx, sy));
        }
        if (!why.empty()) {
            clear();
            throw std::invalid_argument("entry " + std::to_string(i) + " " + why);
        }
        push_back(key, mask);
    }
}

std::uint64_t RadiusCache::mask_key(std::int64_t ccx, std::int64_t ccy, int sx, int sy) {
    const std::uint64_t x = static_cast<std::uint64_t>(ccx) & 0xfffffffull;
    const std::uint64_t y = static_cast<std::uint64_t>(ccy) & 0xfffffffull;
    return (x << 36) | (y << 8) | (static_cast<std::uint64_t>(sx) << 2) |
           static_cast<std::uint64_t>(sy);
}

std::uint16_t RadiusCache::window_mask(std::int64_t ccx, std::int64_t ccy,
                                       geom::Vec2 center) {
    ++stats_.lookups;
    // Quantize the center's offset within its cell. The clamp keeps FP slop
    // in the offset from escaping the cell; classify() pads the quantum
    // square so the mask stays conservative either way.
    const int sx = std::clamp(
        static_cast<int>(std::floor(
            (center.x - static_cast<double>(ccx) * cell_side_m_) / quantum_m_)),
        0, kQuantaPerSide - 1);
    const int sy = std::clamp(
        static_cast<int>(std::floor(
            (center.y - static_cast<double>(ccy) * cell_side_m_) / quantum_m_)),
        0, kQuantaPerSide - 1);
    const std::uint64_t key = mask_key(ccx, ccy, sx, sy);
    if (const std::uint32_t n = table_[find_bucket(key)].node; n != kNone) {
        ++stats_.hits;
        if (n != head_) {
            unlink(n);
            push_front(n);
        }
        return nodes_[n].mask;
    }
    ++stats_.misses;
    const std::uint16_t mask = classify(ccx, ccy, sx, sy);
    // At capacity the least recent node is evicted and reused in place.
    std::uint32_t n;
    if (nodes_.size() < capacity_) {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{key, kNone, kNone, mask});
    } else {
        ++stats_.evictions;
        n = tail_;
        erase_key(nodes_[n].key);
        unlink(n);
        nodes_[n].key = key;
        nodes_[n].mask = mask;
    }
    insert_key(key, n);
    push_front(n);
    return mask;
}

std::uint16_t RadiusCache::classify(std::int64_t ccx, std::int64_t ccy, int sx,
                                    int sy) const {
    // The quantum square every center mapping to this key lies in, padded so
    // one mask is valid for all of them (conservative over the quantum).
    const double qlo_x =
        static_cast<double>(ccx) * cell_side_m_ + sx * quantum_m_ - kGeometryPadM;
    const double qhi_x = qlo_x + quantum_m_ + 2.0 * kGeometryPadM;
    const double qlo_y =
        static_cast<double>(ccy) * cell_side_m_ + sy * quantum_m_ - kGeometryPadM;
    const double qhi_y = qlo_y + quantum_m_ + 2.0 * kGeometryPadM;
    const double r2 = radius_m_ * radius_m_;

    std::uint16_t mask = 0;
    int bit = 0;
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
        for (std::int64_t dx = -1; dx <= 1; ++dx, ++bit) {
            // Nearest per-axis gap between the (padded) window cell's box and
            // the quantum square; the cell is prunable only when even that
            // nearest approach lies beyond the radius.
            const double clo_x =
                static_cast<double>(ccx + dx) * cell_side_m_ - kGeometryPadM;
            const double chi_x = clo_x + cell_side_m_ + 2.0 * kGeometryPadM;
            const double clo_y =
                static_cast<double>(ccy + dy) * cell_side_m_ - kGeometryPadM;
            const double chi_y = clo_y + cell_side_m_ + 2.0 * kGeometryPadM;
            const double gx = std::max({0.0, clo_x - qhi_x, qlo_x - chi_x});
            const double gy = std::max({0.0, clo_y - qhi_y, qlo_y - chi_y});
            if (gx * gx + gy * gy <= r2) mask |= std::uint16_t{1} << bit;
        }
    }
    return mask;
}

CellTree::CellTree(double cell_side_m) : cell_side_m_(cell_side_m) {
    if (!(cell_side_m > 0.0)) {
        throw std::invalid_argument("CellTree: cell side must be positive");
    }
    inv_cell_ = 1.0 / cell_side_m;
}

std::int64_t CellTree::cell_coord(double v) const {
    return static_cast<std::int64_t>(std::floor(v * inv_cell_));
}

std::uint64_t CellTree::tile_key(std::int64_t tx, std::int64_t ty) {
    return (static_cast<std::uint64_t>(tx) << 32) ^
           (static_cast<std::uint64_t>(ty) & 0xffffffffull);
}

unsigned CellTree::local_cell(std::int64_t cx, std::int64_t cy) {
    // Low bits select the cell inside the 8x8 tile; arithmetic shift in
    // cell_coord keeps this consistent for negative coordinates.
    const unsigned lx = static_cast<unsigned>(cx & (kTileSide - 1));
    const unsigned ly = static_cast<unsigned>(cy & (kTileSide - 1));
    return ly * kTileSide + lx;
}

CellTree::Tile* CellTree::find_tile(std::int64_t tx, std::int64_t ty) const {
    const auto it = tiles_.find(tile_key(tx, ty));
    return it == tiles_.end() ? nullptr : it->second.get();
}

CellTree::Tile& CellTree::tile_for(std::int64_t tx, std::int64_t ty) {
    std::unique_ptr<Tile>& slot = tiles_[tile_key(tx, ty)];
    if (slot == nullptr) slot = std::make_unique<Tile>();
    return *slot;
}

void CellTree::place(std::uint32_t id, std::int64_t cx, std::int64_t cy,
                     geom::Vec2 pos) {
    Tile& tile = tile_for(cx >> kTileShift, cy >> kTileShift);
    const unsigned local = local_cell(cx, cy);
    std::vector<Slot>& bucket = tile.cells[local];
    bucket.push_back(Slot{id, pos});
    tile.occupancy |= std::uint64_t{1} << local;
    ++tile.population;
    Entry& e = entries_[id];
    e.tile = &tile;
    e.cx = cx;
    e.cy = cy;
    e.slot = static_cast<std::uint32_t>(bucket.size() - 1);
    e.pos = pos;
}

void CellTree::unplace(std::uint32_t id) {
    Entry& e = entries_[id];
    Tile& tile = *e.tile;
    const unsigned local = local_cell(e.cx, e.cy);
    std::vector<Slot>& bucket = tile.cells[local];
    // Swap-pop; patch the moved entry's back-reference.
    const std::uint32_t last = static_cast<std::uint32_t>(bucket.size() - 1);
    if (e.slot != last) {
        bucket[e.slot] = bucket[last];
        entries_[bucket[e.slot].id].slot = e.slot;
    }
    bucket.pop_back();
    if (bucket.empty()) tile.occupancy &= ~(std::uint64_t{1} << local);
    --tile.population;
    if (tile.population == 0) {
        // Reclaim the empty tile so a swarm sweeping across a city never
        // accretes dead tiles along its wake.
        tiles_.erase(tile_key(e.cx >> kTileShift, e.cy >> kTileShift));
    }
    e.tile = nullptr;
}

void CellTree::insert(std::uint32_t id, geom::Vec2 pos) {
    if (id >= entries_.size()) entries_.resize(id + 1);
    assert(entries_[id].tile == nullptr && "CellTree::insert: id already present");
    if (entries_[id].tile != nullptr) unplace(id);
    place(id, cell_coord(pos.x), cell_coord(pos.y), pos);
    ++size_;
    ++stats_.inserts;
}

void CellTree::remove(std::uint32_t id) {
    if (!contains(id)) return;
    unplace(id);
    --size_;
    ++stats_.removes;
}

void CellTree::update(std::uint32_t id, geom::Vec2 pos) {
    if (!contains(id)) return;
    update_present(id, pos);
}

std::uint32_t CellTree::tile_population_at(geom::Vec2 pos) const {
    const Tile* tile = find_tile(cell_coord(pos.x) >> kTileShift,
                                 cell_coord(pos.y) >> kTileShift);
    return tile == nullptr ? 0 : tile->population;
}

std::int64_t CellTree::window_reach(double radius) const {
    // radius * inv_cell rounds either way; the (1 - 1e-12) shave keeps the
    // medium's hot case (radius == cell side minus the truncation slack, or
    // exactly equal for truncation queries) at reach 1 instead of tipping to
    // 2 on an upward rounding, while any real overshoot past a cell boundary
    // still widens the window.
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::floor(radius * inv_cell_ * (1.0 - 1e-12))) + 1);
}

bool CellTree::cell_outside_disk(std::int64_t cx, std::int64_t cy,
                                 geom::Vec2 center, double r2) const {
    const double lo_x = static_cast<double>(cx) * cell_side_m_ - kGeometryPadM;
    const double hi_x = lo_x + cell_side_m_ + 2.0 * kGeometryPadM;
    const double lo_y = static_cast<double>(cy) * cell_side_m_ - kGeometryPadM;
    const double hi_y = lo_y + cell_side_m_ + 2.0 * kGeometryPadM;
    const double gx = std::max({0.0, lo_x - center.x, center.x - hi_x});
    const double gy = std::max({0.0, lo_y - center.y, center.y - hi_y});
    return gx * gx + gy * gy > r2;
}

void CellTree::update_present(std::uint32_t id, geom::Vec2 pos) {
    Entry& e = entries_[id];
    const std::int64_t cx = cell_coord(pos.x);
    const std::int64_t cy = cell_coord(pos.y);
    if (cx == e.cx && cy == e.cy) {
        // Same cell: refresh the cached position in place (queries hand the
        // cached value to callers, and the medium's debug contract check
        // compares it against the live provider).
        e.pos = pos;
        e.tile->cells[local_cell(cx, cy)][e.slot].pos = pos;
        ++stats_.in_cell_updates;
        return;
    }
    unplace(id);
    place(id, cx, cy, pos);
    ++stats_.migrations;
}

}  // namespace cocoa::mac::spatial
