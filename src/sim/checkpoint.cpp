#include "sim/checkpoint.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cocoa::sim::ckpt {

namespace {
/// "CKPTCOCO" as a little-endian u64.
constexpr std::uint64_t kMagic = 0x4f434f4354504b43ull;
}  // namespace

void Reader::need(std::uint64_t n) const {
    if (static_cast<std::uint64_t>(end_ - p_) < n) {
        throw std::runtime_error("checkpoint: truncated blob");
    }
}

std::size_t Reader::checked_count(std::size_t min_element_bytes) {
    const std::size_t at = offset();
    const std::uint64_t n = u64();
    const auto left = static_cast<std::uint64_t>(end_ - p_);
    if (n > left / min_element_bytes) {
        bad_count(n, at, "more elements than the " + std::to_string(left) + " bytes left can hold");
    }
    return static_cast<std::size_t>(n);
}

void Reader::mark(std::uint32_t sentinel) {
    std::uint32_t got = 0;
    word(got);
    if (got != sentinel) {
        std::ostringstream ss;
        ss << "checkpoint: section sentinel mismatch (expected 0x" << std::hex
           << sentinel << ", got 0x" << got << ") — blob/binary layout skew";
        throw std::runtime_error(ss.str());
    }
}

void Reader::out_of_range(const char* what, std::uint64_t value, std::uint64_t max) {
    throw std::runtime_error(std::string("checkpoint: ") + what + " " + std::to_string(value) +
                             " outside its valid range [0, " + std::to_string(max) +
                             "] — corrupt blob");
}

void Reader::bad_count(std::uint64_t n, std::size_t at, const std::string& why) {
    throw std::runtime_error("checkpoint: count " + std::to_string(n) + " at byte " +
                             std::to_string(at) + ": " + why + " — corrupt blob");
}

void Reader::expect_end() const {
    if (!at_end()) {
        throw std::runtime_error("checkpoint: trailing bytes after restore — "
                                 "blob/binary layout skew");
    }
}

namespace {
/// The header: magic, format version, flavor. A restore checks each.
template <typename Ar>
void walk_header(Ar& ar, std::uint32_t& flavor) {
    std::uint64_t magic = kMagic;
    std::uint32_t version = kFormatVersion;
    ar(magic, version, flavor);
    if constexpr (Ar::loading) {
        if (magic != kMagic) {
            throw std::runtime_error("checkpoint: bad magic (not a cocoa checkpoint)");
        }
        if (version != kFormatVersion) {
            throw std::runtime_error("checkpoint: format version " + std::to_string(version) +
                                     " != supported " + std::to_string(kFormatVersion));
        }
        if (flavor != static_cast<std::uint32_t>(Flavor::kScenario) &&
            flavor != static_cast<std::uint32_t>(Flavor::kSwarm)) {
            throw std::runtime_error("checkpoint: unknown flavor " + std::to_string(flavor));
        }
    }
}
}  // namespace

void write_header(Writer& w, Flavor flavor) {
    auto raw = static_cast<std::uint32_t>(flavor);
    walk_header(w, raw);
}

Flavor read_header(Reader& r) {
    std::uint32_t raw = 0;
    walk_header(r, raw);
    return static_cast<Flavor>(raw);
}

void write_blob_file(const std::string& path, std::string_view blob) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("checkpoint: cannot open " + path);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out) throw std::runtime_error("checkpoint: short write to " + path);
}

std::string read_blob_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) throw std::runtime_error("checkpoint: read error on " + path);
    return std::move(ss).str();
}

}  // namespace cocoa::sim::ckpt
