#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>

namespace cocoa::sim {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// The splitmix64 finalizer: one cheap, high-diffusion 64-bit mix. Stable
/// across platforms (part of the reproducibility contract, like the FNV-1a
/// hash in RngManager). Used both for seed derivation and as the per-draw
/// mixer behind counter-based random streams.
constexpr std::uint64_t splitmix64_mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// A tiny splitmix64-based URBG for counter-based ("hash the key, then draw")
/// random sampling. Unlike RandomStream's Mt19937_64 (whose 312-word state
/// initialisation dwarfs a handful of draws), construction is two integer
/// mixes, so a fresh generator per (frame, receiver) key is essentially free.
/// The output sequence depends only on the seed, never on how many draws any
/// *other* generator made — which is what makes consumers order- and
/// subset-independent.
///
/// gaussian() and exponential() are implemented here rather than through the
/// std distributions, repeating libstdc++'s exact operation sequence
/// (Marsaglia polar over generate_canonical<double, 53>, and -log(1 - u) /
/// lambda), so every draw is bitwise what std::normal_distribution and
/// std::exponential_distribution would return (pinned by phy_test). Owning
/// the sequence exposes the accepted polar pair, which lets a caller bound a
/// deviate before paying for its log and sqrt (phy::Channel's quiet draw).
class SplitMix64 {
  public:
    using result_type = std::uint64_t;

    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~std::uint64_t{0}; }

    /// splitmix64_mix(state) of the state before the step: the mix's own
    /// increment is the generator's step.
    result_type operator()() {
        const std::uint64_t x = state_;
        state_ += 0x9e3779b97f4a7c15ull;
        return splitmix64_mix(x);
    }

    /// One accepted Marsaglia-polar pair: y and r2 = x^2 + y^2 in (0, 1].
    /// The standard normal deviate it yields is y * sqrt(-2 ln(r2) / r2).
    struct Polar {
        double y;
        double r2;

        double sample(double mean, double stddev) const {
            return y * std::sqrt(-2 * std::log(r2) / r2) * stddev + mean;
        }
    };

    /// Uniform double in [0, 1): generate_canonical<double, 53> for a 64-bit
    /// generator (one draw scaled by 2^-64, rounded values of 1 pulled down).
    double canonical() {
        const double u = static_cast<double>((*this)()) * 0x1p-64;
        return u < 1.0 ? u : 0x1.fffffffffffffp-1;
    }

    Polar polar() {
        double x, y, r2;
        do {
            x = 2.0 * canonical() - 1.0;
            y = 2.0 * canonical() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        return {y, r2};
    }

    /// Zero-mean-unless-specified Gaussian (same contract as RandomStream).
    double gaussian(double mean, double stddev) {
        if (stddev <= 0.0) return mean;
        return polar().sample(mean, stddev);
    }

    /// Exponentially distributed value with the given mean.
    double exponential(double mean) {
        return -std::log(1.0 - canonical()) / (1.0 / mean);
    }

  private:
    std::uint64_t state_;
};

/// MT19937-64 exactly as the C++ standard specifies its mt19937_64
/// ([rand.eng.mers], [rand.predef]): the same seeding, twist and tempering,
/// and the same min() and max(). Every std distribution therefore draws the
/// same values from it as from the standard library's engine, bit for bit
/// (pinned by sim_test against that engine). Owning the engine makes its
/// 312-word state and position plain members, so a checkpoint writes them
/// as raw words rather than through the standard's decimal text
/// representation.
class Mt19937_64 {
  public:
    using result_type = std::uint64_t;
    static constexpr std::size_t kStateWords = 312;

    explicit Mt19937_64(result_type seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()() {
        if (pos_ >= kStateWords) [[unlikely]] twist();
        result_type z = state_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        return z ^ (z >> 43);
    }

    /// Advances the engine as `n` draws would, twisting where they would
    /// but tempering nothing: from a fresh seeding this is the engine after
    /// its first n outputs, state and position alike.
    void discard(std::uint64_t n);

    /// Twists since seeding, and the outputs drawn since seeding. A restore
    /// carries neither (the blob holds the state words and the position
    /// only), so both count from the seeding in this process.
    std::uint64_t twists() const { return twists_; }
    std::uint64_t outputs() const {
        return twists_ == 0 ? 0 : (twists_ - 1) * kStateWords + pos_;
    }

    /// Checkpoint walk (sim/checkpoint.hpp): the 312 state words, then the
    /// position, as 313 little-endian u64s with the state in one bulk copy.
    /// A restore rejects a position above 312, which no engine can reach.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& e) {
        ar(e.state_, e.pos_);
        if constexpr (Ar::loading) {
            if (e.pos_ > kStateWords) Ar::out_of_range("RNG position", e.pos_, kStateWords);
        }
    }

  private:
    /// Regenerates all 312 state words and rewinds the position to 0.
    void twist();

    std::array<std::uint64_t, kStateWords> state_;
    /// Index of the next state word to temper; kStateWords means "twist
    /// first", as after seeding.
    std::size_t pos_ = kStateWords;
    std::uint64_t twists_ = 0;
};

/// A deterministic pseudo-random stream.
///
/// Every stochastic consumer in the simulator (per-node mobility, odometry
/// noise, channel shadowing, MAC backoff, ...) owns its own stream, derived
/// from a master seed plus a stable name. This keeps parameter sweeps
/// variance-controlled: changing, say, the beacon period does not perturb the
/// random numbers the mobility model draws.
///
/// The 2.5 KB engine exists only while the stream draws. A new stream holds
/// just its seed and seeds the engine on its first draw. park() moves the
/// engine's next kWindowWords outputs into an inline window and frees the
/// engine; a draw past the window rebuilds it by re-seeding and replaying
/// its twists (Mt19937_64::discard). Every draw and every checkpoint byte
/// is what an engine that never parked would give. See docs/performance.md,
/// "Parked streams".
class RandomStream {
  public:
    /// Outputs a parked stream keeps inline.
    static constexpr std::size_t kWindowWords = 32;
    /// park() does nothing once the engine has twisted more often than this,
    /// which bounds a rebuild to one seeding and kParkTwistBound + 1 twists.
    static constexpr std::uint64_t kParkTwistBound = 16;

    explicit RandomStream(std::uint64_t seed) : seed_(seed) {}

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) {
        Bits bits{*this};
        return std::uniform_real_distribution<double>(lo, hi)(bits);
    }

    /// Uniform integer in [lo, hi] (inclusive).
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        Bits bits{*this};
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(bits);
    }

    /// Zero-mean-unless-specified Gaussian.
    double gaussian(double mean, double stddev) {
        if (stddev <= 0.0) return mean;
        Bits bits{*this};
        return std::normal_distribution<double>(mean, stddev)(bits);
    }

    /// Bernoulli trial with success probability p.
    bool chance(double p) {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        Bits bits{*this};
        return std::bernoulli_distribution(p)(bits);
    }

    /// Exponentially distributed value with the given mean.
    double exponential(double mean) {
        Bits bits{*this};
        return std::exponential_distribution<double>(1.0 / mean)(bits);
    }

    /// Frees the engine of a stream that is about to go quiet, keeping its
    /// next kWindowWords outputs inline. Does nothing when no engine is held
    /// (a new or already parked stream), when the engine has twisted more
    /// than kParkTwistBound times, or after a restore.
    void park();

    /// Whether the engine is allocated (the stream has drawn since it was
    /// created or last parked, or was restored).
    bool holds_engine() const { return engine_ != nullptr; }

    /// Checkpoints the engine at the stream's logical position: draws after
    /// a restore bitwise-match the draws the saved stream would have
    /// produced. A parked stream writes the engine rebuilt at its rebuild
    /// position minus the window words not yet read, so the bytes do not
    /// depend on parking. (All distributions here are constructed per call,
    /// so the engine is the stream's entire state.) A restored stream holds
    /// its engine for good: the blob carries no twist count to replay to.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& s) {
        if constexpr (Ar::loading) {
            if (!s.engine_) s.engine_ = std::make_unique<Mt19937_64>(s.seed_);
            s.window_at_ = kWindowWords;
            s.restored_ = true;
            ar(*s.engine_);
        } else if (s.engine_) {
            ar(*s.engine_);
        } else {
            Mt19937_64 at(s.seed_);
            at.discard(s.resume_at_ - (kWindowWords - s.window_at_));
            ar(at);
        }
    }
    void save(ckpt::Writer& w) const;
    void load(ckpt::Reader& r);

  private:
    /// The URBG the std distributions draw through.
    struct Bits {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return Mt19937_64::min(); }
        static constexpr result_type max() { return Mt19937_64::max(); }
        RandomStream& stream;
        result_type operator()() {
            if (stream.engine_) [[likely]] return (*stream.engine_)();
            return stream.next_unheld();
        }
    };

    /// The next output while no engine is held: a window word, else the
    /// first output of an engine rebuilt at resume_at_.
    std::uint64_t next_unheld();

    std::unique_ptr<Mt19937_64> engine_;
    std::uint64_t seed_;
    /// Outputs drawn from the engine before it was last freed: where a
    /// rebuild resumes, just past the window.
    std::uint64_t resume_at_ = 0;
    /// Next window word to read; kWindowWords when the window is empty, as
    /// it always is while the engine is held.
    std::uint8_t window_at_ = kWindowWords;
    bool restored_ = false;
    std::array<std::uint64_t, kWindowWords> window_{};
};

/// Derives independent named RandomStreams from a single master seed.
class RngManager {
  public:
    explicit RngManager(std::uint64_t master_seed) : master_seed_(master_seed) {}

    std::uint64_t master_seed() const { return master_seed_; }

    /// A stream keyed by a stable name ("mobility", "phy.shadowing", ...).
    RandomStream stream(std::string_view name) const;

    /// A stream keyed by a name plus an index (typically a node id).
    RandomStream stream(std::string_view name, std::uint64_t index) const;

    /// The raw 64-bit seed behind stream(name, index). Exposed so higher
    /// layers (e.g. the replication engine) can derive child *master* seeds
    /// with the same stable, platform-independent hash.
    std::uint64_t derive_seed(std::string_view name, std::uint64_t index) const;

  private:
    std::uint64_t master_seed_;
};

}  // namespace cocoa::sim
