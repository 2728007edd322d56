#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"
#include "sim/random.hpp"

namespace cocoa::phy {
class Channel;
}

namespace cocoa::mac {

/// Vectorized transmission-fanout kernels behind Medium::begin_transmission.
///
/// The medium's hot loop evaluates, for every spatial-index candidate around
/// a transmitter: squared distance, the exact-radius cull, a settle verdict
/// for receivers that provably stay below carrier sense, and the three
/// deterministic channel terms (path-loss mean, shadowing sigma, fade mean)
/// that feed the per-(frame, receiver) RSSI draw of every receiver it could
/// not settle. fanout gathers candidates into a reusable SoA batch and runs
/// that evaluation blocked over kBlock lanes, mirroring core/grid_kernels: a
/// baseline instantiation compiled with default ISA flags plus AVX2/AVX-512
/// instantiations behind a runtime dispatcher, all byte-identical by
/// construction.
///
/// Determinism contract: the distance arithmetic is mul/add only with
/// contraction disabled on every instantiation (no ISA gains an FMA another
/// lacks), std::sqrt is correctly rounded on every path, and the channel
/// terms are computed by out-of-line phy::Channel calls — the same functions
/// the unculled sweep uses — in fixed ascending lane order. The settle pass
/// draws each lane's first accepted Marsaglia-polar pair in vector lanes:
/// the counter-based key (rssi_key), splitmix64 outputs and their exact
/// u64-to-double conversion are integer and IEEE operations every ISA
/// performs identically, so every instantiation settles the same lanes. A
/// settled lane is one whose draw provably returns quiet (see GapTable), so
/// the verdict changes no output either way; every lane the kernel leaves
/// unsettled takes the medium's scalar counter-based draw unchanged. A
/// -DCOCOA_SIMD=OFF build, every forced ISA, AVX2 and AVX-512 all produce
/// byte-identical swarm output, which the golden digests pin.
namespace fanout {

/// Lane count of the blocked layout — the unit the gather pads to. Fixed
/// across ISAs (it defines the evaluation order, not the vector width).
inline constexpr std::size_t kBlock = 8;

/// Squared-distance buckets of a GapTable (fixed, like kBlock: it sets how
/// tight the carrier-sense bound is, not what any run computes).
inline constexpr std::size_t kGapBuckets = 1024;

/// Polar attempts the settle pass makes per lane before it leaves the lane
/// to the scalar draw. Each attempt is accepted with probability pi/4, so
/// about 5 lanes in 10^6 run out.
inline constexpr int kPolarAttempts = 8;

constexpr std::size_t padded(std::size_t n) {
    return (n + kBlock - 1) / kBlock * kBlock;
}

/// The counter-based key of one receiver's RSSI draw: a pure function of the
/// frame key and the receiver id (never of attach order or of any other
/// receiver). The settle pass computes the same mix in vector lanes.
constexpr std::uint64_t rssi_key(std::uint64_t frame_key, std::uint64_t id) {
    return sim::splitmix64_mix(frame_key ^ sim::splitmix64_mix(id + 0x51ed2701));
}

/// Carrier-sense bounds per squared-distance bucket, built once per medium.
///
/// Bucket b covers squared distances [b, b + 1) * r2 / kGapBuckets of the
/// cull disc. For it the table holds
///  - gap_sq: gap_lb^2, where gap_lb = c - kQuietMarginDb - mean_ub is a
///    lower bound on the quiet draw's carrier-sense gap: mean_ub is the
///    channel mean at the bucket's inner edge shrunk by 1e-9 relative, plus
///    1e-9 dB. The mean decreases with distance, and the two 1e-9 margins
///    absorb the bucket index's rounding and the log's. gap_sq is -1 where
///    gap_lb <= 0 (the bucket is not provably below carrier sense);
///  - sigma_sq: sigma_ub^2, with sigma_ub the largest shadowing sigma over
///    the bucket: the computed sigma is monotone on each piece of its ramp,
///    so its maximum lies at an edge or at the last ramp distance.
/// Both come from the out-of-line phy::Channel functions the draws use.
///
/// A lane in a below bucket whose first accepted polar pair (y, r2) has
/// y <= 0 or 2 y^2 (1 - r2) sigma_ub^2 <= gap_lb^2 r2^2 is *settled*:
/// Channel::sample_rssi_or_quiet returns quiet for it, since its own sigma
/// is <= sigma_ub and its own gap >= gap_lb, and a product of non-negative
/// doubles is monotone under round-to-nearest.
struct GapTable {
    struct Bucket {
        double gap_sq = -1.0;
        double sigma_sq = 0.0;
    };

    GapTable() = default;
    GapTable(const phy::Channel& channel, double r2);

    const phy::Channel* channel = nullptr;
    double r2 = 0.0;         ///< squared cull radius the buckets span
    double inv_width = 0.0;  ///< kGapBuckets / r2
    /// Inner edge of the first below bucket (+inf when none is): blocks
    /// whose lanes all lie closer skip the settle pass.
    double below_dq = 0.0;
    std::vector<Bucket> buckets;
};

/// Reusable SoA gather target: candidate attach indices and cached positions
/// in, per-lane cull and settle verdicts and channel terms out. Owned by the
/// medium and recycled across transmissions (capacity never shrinks), so
/// steady-state fanout is allocation-free once warmed.
struct Batch {
    std::size_t count = 0;           ///< candidates gathered (not padded)
    std::vector<std::uint32_t> idx;  ///< attach index per candidate
    std::vector<double> x;           ///< cached position, padded with +inf
    std::vector<double> y;
    // Outputs of cull_and_prepare, valid for lanes [0, lanes()):
    std::vector<std::uint8_t> keep;  ///< 1 = within the cull radius
    std::vector<double> dq;          ///< squared distance (kept lanes only)
    std::vector<std::uint8_t> settled;  ///< 1 = draw provably quiet (kept lanes)
    // Channel terms, for kept lanes that are not settled only:
    std::vector<double> dist;        ///< exact distance
    std::vector<double> mean_dbm;    ///< Channel::mean_rssi_dbm(dist)
    std::vector<double> sigma_db;    ///< Channel::shadowing_sigma_db(dist)
    std::vector<double> fade_db;     ///< Channel::fade_mean_db(dist)
    /// Compacted ascending lane indices of the kept lanes — the first
    /// `cull_and_prepare(...)` entries are valid, so the consumer touches
    /// only survivors instead of re-scanning every lane (in a dense window
    /// most candidates cull, and the rescan would rival the cull itself).
    std::vector<std::uint32_t> kept_lanes;

    void clear() { count = 0; }

    void push(std::uint32_t id, double px, double py) {
        if (count == idx.size()) grow();
        idx[count] = id;
        x[count] = px;
        y[count] = py;
        ++count;
    }

    /// Lanes the kernel evaluates: count rounded up to whole blocks.
    std::size_t lanes() const { return padded(count); }

    /// Pads the position tail with +inf (squared distance overflows past any
    /// radius, so padding lanes always cull) and sizes the output arrays.
    /// Call once after the gather, before cull_and_prepare.
    void seal();

    std::size_t capacity() const { return idx.size(); }

  private:
    void grow();
};

/// One sealed batch's kernel inputs: everything by pointer so the dispatch
/// boundary stays POD (mirrors gridk's plan structs).
struct CullPlan {
    const double* x = nullptr;  ///< padded(count) lanes, +inf tail
    const double* y = nullptr;
    const std::uint32_t* idx = nullptr;
    std::size_t lanes = 0;
    double tx_x = 0.0;
    double tx_y = 0.0;
    const GapTable* gaps = nullptr;  ///< carries the channel and r2
    const std::uint32_t* ids = nullptr;  ///< receiver id per attach index
    std::uint64_t frame_key = 0;
    std::uint8_t* keep = nullptr;
    double* dq = nullptr;
    std::uint8_t* settled = nullptr;
    double* dist = nullptr;
    double* mean_dbm = nullptr;
    double* sigma_db = nullptr;
    double* fade_db = nullptr;
    std::uint32_t* kept_lanes = nullptr;
};

/// Builds the plan over a sealed batch. `ids` maps attach index to receiver
/// id; `frame_key` is the frame's rssi_key argument.
CullPlan make_plan(Batch& batch, geom::Vec2 tx_pos, const GapTable& gaps,
                   const std::uint32_t* ids, std::uint64_t frame_key);

/// Culls every lane against gaps.r2 (blocked squared-distance pass), settles
/// the kept lanes it can prove quiet, and computes dist/mean/sigma/fade for
/// the other kept lanes in ascending lane order. Returns the number of kept
/// lanes. Dispatched.
std::size_t cull_and_prepare(const CullPlan& plan);

/// The ISA the dispatcher selected at startup: "avx512", "avx2" or
/// "generic". force_isa does not change this.
const char* active_isa();

/// Every instantiation this build compiled and this CPU can run, "generic"
/// first.
std::vector<const char*> runnable_isas();

/// Test hook: while set, cull_and_prepare runs the named instantiation (one
/// of runnable_isas()) regardless of the dispatched ISA; nullptr restores
/// the dispatch. Throws std::invalid_argument for any other name. Results
/// stay byte-identical; that is the contract the bitwise tests pin.
void force_isa(const char* isa);

}  // namespace fanout
}  // namespace cocoa::mac
