#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"

namespace cocoa::phy {
class Channel;
}

namespace cocoa::mac {

/// Vectorized transmission-fanout kernels behind Medium::begin_transmission.
///
/// The medium's hot loop evaluates, for every spatial-index candidate around
/// a transmitter: squared distance, the exact-radius cull, and the three
/// deterministic channel terms (path-loss mean, shadowing sigma, fade mean)
/// that feed the per-(frame, receiver) RSSI draw. fanout gathers candidates
/// into a reusable SoA batch and runs that evaluation blocked over kBlock
/// lanes, mirroring core/grid_kernels: a baseline instantiation compiled with
/// default ISA flags plus AVX2/AVX-512 instantiations behind a runtime
/// dispatcher, all byte-identical by construction.
///
/// Determinism contract: the distance arithmetic is mul/add only with
/// contraction disabled on every instantiation (no ISA gains an FMA another
/// lacks), std::sqrt is correctly rounded on every path, and the channel
/// terms are computed by out-of-line phy::Channel calls — the same functions
/// the unculled sweep uses — in fixed ascending lane order. The stochastic
/// RSSI draw itself stays scalar in the medium (counter-based per-(frame,
/// receiver) generators), so draw values and order are untouched; a
/// -DCOCOA_SIMD=OFF build, the forced generic path, AVX2 and AVX-512 all
/// produce byte-identical swarm output, which the golden digests pin.
namespace fanout {

/// Lane count of the blocked layout — the unit the gather pads to. Fixed
/// across ISAs (it defines the evaluation order, not the vector width).
inline constexpr std::size_t kBlock = 8;

constexpr std::size_t padded(std::size_t n) {
    return (n + kBlock - 1) / kBlock * kBlock;
}

/// Reusable SoA gather target: candidate attach indices and cached positions
/// in, per-lane cull verdicts and channel terms out. Owned by the medium and
/// recycled across transmissions (capacity never shrinks), so steady-state
/// fanout is allocation-free once warmed.
struct Batch {
    std::size_t count = 0;           ///< candidates gathered (not padded)
    std::vector<std::uint32_t> idx;  ///< attach index per candidate
    std::vector<double> x;           ///< cached position, padded with +inf
    std::vector<double> y;
    // Outputs of cull_and_prepare, valid for lanes [0, lanes()):
    std::vector<std::uint8_t> keep;  ///< 1 = within the cull radius
    std::vector<double> dist;        ///< exact distance (kept lanes only)
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
    std::size_t lanes = 0;
    double tx_x = 0.0;
    double tx_y = 0.0;
    double r2 = 0.0;  ///< squared cull radius
    const phy::Channel* channel = nullptr;
    std::uint8_t* keep = nullptr;
    double* dist = nullptr;
    double* mean_dbm = nullptr;
    double* sigma_db = nullptr;
    double* fade_db = nullptr;
    std::uint32_t* kept_lanes = nullptr;
};

/// Builds the plan over a sealed batch.
CullPlan make_plan(Batch& batch, geom::Vec2 tx_pos, double r2,
                   const phy::Channel& channel);

/// Culls every lane against r2 (blocked squared-distance pass) and computes
/// dist/mean/sigma/fade for the kept lanes in ascending lane order. Returns
/// the number of kept lanes. Dispatched.
std::size_t cull_and_prepare(const CullPlan& plan);

/// The ISA the dispatcher selected at startup: "avx512", "avx2" or
/// "generic". set_force_generic does not change this.
const char* active_isa();

/// Test hook: while set, cull_and_prepare runs the portable blocked
/// instantiation regardless of the dispatched ISA. Results stay
/// byte-identical; that is the contract the bitwise tests pin.
void set_force_generic(bool on);

}  // namespace fanout
}  // namespace cocoa::mac
