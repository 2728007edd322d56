#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"
#include "sim/isa.hpp"
#include "sim/random.hpp"

namespace cocoa::phy {
class Channel;
}

namespace cocoa::mac {

/// Vectorized transmission-fanout kernels behind Medium::begin_transmission.
///
/// The medium's hot loop evaluates, for every spatial-index candidate around
/// a transmitter: squared distance, the exact-radius cull, and the
/// per-(frame, receiver) RSSI draw of every kept receiver. fanout gathers
/// candidates into a reusable SoA batch and finishes every kept lane in it,
/// blocked over sim::isa::kBlock lanes like core/grid_kernels: a baseline
/// instantiation compiled with default ISA flags plus AVX2/AVX-512
/// instantiations, one of which sim::isa selects, all byte-identical by
/// construction. The medium only reads each lane's verdict and RSSI.
///
/// A kept lane ends in one of four verdicts (Verdict). Two settle it from
/// per-bucket bounds (GapTable) without any channel term: the first
/// accepted Marsaglia-polar pair proves the draw quiet (step 1), or a
/// log-free bound on the whole draw proves it below carrier sense (step 2).
/// The lanes left are compacted kBlock at a time and drawn exactly: the
/// lane's own channel terms and quiet test, then the shadowing and fade in
/// vector lanes, with only the libm logs called per lane.
///
/// Determinism contract: the distance arithmetic is mul/add only with
/// contraction disabled on every instantiation (no ISA gains an FMA another
/// lacks), std::sqrt and IEEE division are correctly rounded on every path,
/// and the channel terms and logs are the out-of-line phy::Channel calls and
/// the libm functions the scalar draw uses, called in ascending lane order.
/// The counter-based key (rssi_key), the splitmix64 outputs and their exact
/// u64-to-double conversion are integer and IEEE operations every ISA
/// performs identically, so every instantiation draws the same pairs and
/// uniforms as phy::Channel::sample_rssi_or_quiet. A drawn lane repeats
/// that function's operation sequence in its own association, so its
/// verdict and RSSI are the scalar draw's bits; a settled lane is one whose
/// scalar draw provably ends unsensed, which is all the medium records for
/// it. The rare lanes the vector draw cannot take (a polar pair not accepted
/// within kPolarAttempts, a zero shadowing sigma) run the scalar
/// sample_rssi_or_quiet inside the kernel. A -DCOCOA_SIMD=OFF build, every
/// forced ISA, AVX2 and AVX-512 all produce byte-identical output, which the
/// golden digests pin (dense_400m against the unculled sweep among them).
namespace fanout {

/// Squared-distance buckets of a GapTable (fixed, like kBlock: it sets how
/// tight the carrier-sense bound is, not what any run computes).
inline constexpr std::size_t kGapBuckets = 1024;

/// Polar attempts the kernel makes per lane before it leaves the lane to
/// the scalar draw. Each attempt is accepted with probability pi/4, so
/// about 5 lanes in 10^6 run out.
inline constexpr int kPolarAttempts = 8;

/// The counter-based key of one receiver's RSSI draw: a pure function of the
/// frame key and the receiver id (never of attach order or of any other
/// receiver). The kernel computes the same mix in vector lanes.
constexpr std::uint64_t rssi_key(std::uint64_t frame_key, std::uint64_t id) {
    return sim::splitmix64_mix(frame_key ^ sim::splitmix64_mix(id + 0x51ed2701));
}

/// How the kernel finished one kept lane.
enum class Verdict : std::uint8_t {
    /// Step 1: the first accepted polar pair proves the draw quiet.
    kSettledQuiet,
    /// Step 2: the log-free bound proves the full draw below carrier sense.
    kSettledUnsensed,
    /// Drawn: Channel::sample_rssi_or_quiet returns quiet.
    kQuiet,
    /// Drawn: Channel::sample_rssi_or_quiet returns Batch::rssi_dbm.
    kHeard,
};

/// Bounds per squared-distance bucket, built once per medium.
///
/// Bucket b covers squared distances [b, b + 1) * r2 / kGapBuckets of the
/// cull disc. Its inner edge shrunk by 1e-9 relative, and its outer edge
/// grown by as much, bracket the distance of every lane the bucket index
/// sends there (the index's rounding stays far inside 1e-9). For it the
/// table holds
///  - mean_ub: the channel mean at the shrunk inner edge plus 1e-9 dB. The
///    mean decreases with distance, and the 1e-9 dB absorbs the log's
///    rounding, so no lane's mean exceeds it;
///  - gap_sq: gap_lb^2, where gap_lb = c - kQuietMarginDb - mean_ub is a
///    lower bound on the quiet draw's carrier-sense gap, or -1 where
///    gap_lb <= 0 (the bucket is not provably below carrier sense);
///  - sigma_ub, sigma_lb and sigma_sq = sigma_ub^2: the largest and smallest
///    shadowing sigma over the bucket. The computed sigma is monotone on
///    each piece of its ramp, so its extremes lie at an edge or at the last
///    ramp distance;
///  - fade_lb: the fade mean at the shrunk inner edge, shrunk by 1e-9
///    relative (floored at 0): the fade mean never decreases with distance,
///    and the shrink absorbs the rounding of the fade draw's log and
///    division.
/// All come from the out-of-line phy::Channel functions the draws use.
///
/// Step 1 settles a lane in a bucket with gap_sq > 0 whose first accepted
/// polar pair (y, r2) has y <= 0 or 2 y^2 (1 - r2) sigma_ub^2 <= gap_lb^2
/// r2^2: Channel::sample_rssi_or_quiet returns quiet for it, since its own
/// sigma is <= sigma_ub and its own gap >= gap_lb, and a product of
/// non-negative doubles is monotone under round-to-nearest.
///
/// Step 2 settles a lane in a bucket with sigma_lb > 0 (so the draw takes
/// the polar branch and its fade uniform u follows the pair) when
///   (mean_ub + min(sigma_ub z_ub, clamp sigma_ub)) - fade_lb x_lb
/// lies below c - kQuietMarginDb, with z_ub = y sqrt(2 (1 - r2)) / r2 for
/// y > 0 (0 otherwise) and x_lb = 2 (1 - v) / (1 + v), v = 1 - u. From
/// -ln r2 <= (1 - r2) / r2 the deviate is at most z_ub, and from
/// -ln v >= 2 (1 - v) / (1 + v) the fade is at least fade_lb x_lb, so the
/// full draw stays below carrier sense. docs/performance.md ("Drawn lanes")
/// carries the rounding proof.
struct GapTable {
    struct Bucket {
        double gap_sq = -1.0;
        double sigma_sq = 0.0;
        double mean_ub = 0.0;
        double sigma_ub = 0.0;
        double sigma_lb = 0.0;
        double fade_lb = 0.0;
    };

    GapTable() = default;
    GapTable(const phy::Channel& channel, double r2);

    const phy::Channel* channel = nullptr;
    double r2 = 0.0;         ///< squared cull radius the buckets span
    double inv_width = 0.0;  ///< kGapBuckets / r2
    std::vector<Bucket> buckets;
};

/// Reusable SoA gather target: candidate attach indices and cached positions
/// in, per-lane cull verdicts, draw verdicts and RSSI out. Owned by the
/// medium and recycled across transmissions (capacity never shrinks), so
/// steady-state fanout is allocation-free once warmed.
struct Batch {
    std::size_t count = 0;           ///< candidates gathered (not padded)
    std::vector<std::uint32_t> idx;  ///< attach index per candidate
    std::vector<double> x;           ///< cached position, padded with +inf
    std::vector<double> y;
    // Outputs of cull_and_prepare, valid for lanes [0, lanes()):
    std::vector<std::uint8_t> keep;  ///< 1 = within the cull radius
    std::vector<double> dq;          ///< squared distance (defined on kept lanes)
    std::vector<Verdict> verdict;    ///< kept lanes only
    std::vector<double> rssi_dbm;    ///< Verdict::kHeard lanes only
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
    std::size_t lanes() const { return sim::isa::padded(count); }

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
    Verdict* verdict = nullptr;
    double* rssi_dbm = nullptr;
    std::uint32_t* kept_lanes = nullptr;
};

/// Builds the plan over a sealed batch. `ids` maps attach index to receiver
/// id; `frame_key` is the frame's rssi_key argument.
CullPlan make_plan(Batch& batch, geom::Vec2 tx_pos, const GapTable& gaps,
                   const std::uint32_t* ids, std::uint64_t frame_key);

/// Culls every lane against gaps.r2 (blocked squared-distance pass), then
/// finishes every kept lane: settles the lanes whose draw provably ends
/// unsensed and draws the rest exactly, each with its verdict and, for
/// Verdict::kHeard, its RSSI. Returns the number of kept lanes. Dispatched.
std::size_t cull_and_prepare(const CullPlan& plan);

/// sim::isa::active(), the name the benchmarks stamp.
const char* active_isa();

}  // namespace fanout
}  // namespace cocoa::mac
