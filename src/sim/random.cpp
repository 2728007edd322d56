#include "sim/random.hpp"

#include <algorithm>

#include "sim/checkpoint.hpp"

namespace cocoa::sim {
namespace {

// FNV-1a, then the splitmix64 finalizer for good bit diffusion. The hash
// must be stable across platforms (unlike std::hash), since stream identity
// is part of the reproducibility contract.
std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
    constexpr std::uint64_t kPrime = 1099511628211ull;
    for (const char c : s) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= kPrime;
    }
    return h;
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateWords; ++i) {
        const std::uint64_t prev = state_[i - 1];
        state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }
}

void Mt19937_64::twist() {
    constexpr std::size_t kN = kStateWords;
    constexpr std::size_t kM = 156;
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    // Word k becomes far ^ A(y), y = word k's upper 33 bits | the next
    // word's lower 31 bits ([rand.eng.mers]).
    const auto mix = [](std::uint64_t word, std::uint64_t next, std::uint64_t far) {
        const std::uint64_t y = (word & kUpper) | (next & ~kUpper);
        // The matrix constant under an all-ones-or-zero mask: a branch on
        // y's low bit mispredicts half the time.
        return far ^ (y >> 1) ^ (-(y & 1) & 0xb5026f5aa96619e9ull);
    };
    for (std::size_t k = 0; k < kN - kM; ++k) {
        state_[k] = mix(state_[k], state_[k + 1], state_[k + kM]);
    }
    for (std::size_t k = kN - kM; k < kN - 1; ++k) {
        state_[k] = mix(state_[k], state_[k + 1], state_[k + kM - kN]);
    }
    state_[kN - 1] = mix(state_[kN - 1], state_[0], state_[kM - 1]);
    pos_ = 0;
    ++twists_;
}

void Mt19937_64::discard(std::uint64_t n) {
    while (n > 0) {
        if (pos_ >= kStateWords) twist();
        const std::uint64_t step = std::min<std::uint64_t>(n, kStateWords - pos_);
        pos_ += step;
        n -= step;
    }
}

void RandomStream::park() {
    if (!engine_ || restored_ || engine_->twists() > kParkTwistBound) return;
    for (std::uint64_t& word : window_) word = (*engine_)();
    window_at_ = 0;
    resume_at_ = engine_->outputs();
    engine_.reset();
}

std::uint64_t RandomStream::next_unheld() {
    if (window_at_ < kWindowWords) return window_[window_at_++];
    engine_ = std::make_unique<Mt19937_64>(seed_);
    engine_->discard(resume_at_);
    return (*engine_)();
}

void RandomStream::save(ckpt::Writer& w) const { w(*this); }

void RandomStream::load(ckpt::Reader& r) { r(*this); }

RandomStream RngManager::stream(std::string_view name) const {
    constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
    const std::uint64_t h = fnv1a(name, kOffsetBasis ^ master_seed_);
    return RandomStream{splitmix64_mix(h)};
}

RandomStream RngManager::stream(std::string_view name, std::uint64_t index) const {
    return RandomStream{derive_seed(name, index)};
}

std::uint64_t RngManager::derive_seed(std::string_view name, std::uint64_t index) const {
    constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
    std::uint64_t h = fnv1a(name, kOffsetBasis ^ master_seed_);
    return splitmix64_mix(h ^ splitmix64_mix(index + 0x51ed2701));
}

}  // namespace cocoa::sim
