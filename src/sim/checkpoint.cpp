#include "sim/checkpoint.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cocoa::sim::ckpt {

namespace {
/// "CKPTCOCO" as a little-endian u64.
constexpr std::uint64_t kMagic = 0x4f434f4354504b43ull;
}  // namespace

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

void Reader::need(std::uint64_t n) const {
    if (static_cast<std::uint64_t>(end_ - p_) < n) {
        throw std::runtime_error("checkpoint: truncated blob");
    }
}

void Reader::expect(std::uint32_t sentinel) {
    const std::uint32_t got = u32();
    if (got != sentinel) {
        std::ostringstream ss;
        ss << "checkpoint: section sentinel mismatch (expected 0x" << std::hex
           << sentinel << ", got 0x" << got << ") — blob/binary layout skew";
        throw std::runtime_error(ss.str());
    }
}

void Reader::bad_enumerator(std::uint32_t value, std::uint32_t max) {
    throw std::runtime_error("checkpoint: enum value " + std::to_string(value) +
                             " outside its valid range [0, " + std::to_string(max) +
                             "] — corrupt blob");
}

void Reader::expect_end() const {
    if (!at_end()) {
        throw std::runtime_error("checkpoint: trailing bytes after restore — "
                                 "blob/binary layout skew");
    }
}

void write_header(Writer& w, Flavor flavor) {
    w.u64(kMagic);
    w.u32(kFormatVersion);
    w.u32(static_cast<std::uint32_t>(flavor));
}

Flavor read_header(Reader& r) {
    if (r.u64() != kMagic) {
        throw std::runtime_error("checkpoint: bad magic (not a cocoa checkpoint)");
    }
    const std::uint32_t version = r.u32();
    if (version != kFormatVersion) {
        throw std::runtime_error("checkpoint: format version " +
                                 std::to_string(version) + " != supported " +
                                 std::to_string(kFormatVersion));
    }
    const std::uint32_t flavor = r.u32();
    if (flavor != static_cast<std::uint32_t>(Flavor::kScenario) &&
        flavor != static_cast<std::uint32_t>(Flavor::kSwarm)) {
        throw std::runtime_error("checkpoint: unknown flavor " +
                                 std::to_string(flavor));
    }
    return static_cast<Flavor>(flavor);
}

void CallbackRegistry::add(EventKind kind, Make make, Placed placed) {
    const auto [it, inserted] = entries_.emplace(
        static_cast<std::uint32_t>(kind), Entry{std::move(make), std::move(placed)});
    if (!inserted) {
        throw std::logic_error("CallbackRegistry: kind " +
                               std::to_string(static_cast<std::uint32_t>(kind)) +
                               " registered twice");
    }
}

const CallbackRegistry::Entry& CallbackRegistry::entry(const EventTag& tag) const {
    const auto it = entries_.find(tag.kind);
    if (it == entries_.end()) {
        throw std::runtime_error("checkpoint: no rebuilder for event kind " +
                                 std::to_string(tag.kind));
    }
    return it->second;
}

InplaceCallback CallbackRegistry::make(const EventTag& tag) const {
    return entry(tag).make(tag);
}

void CallbackRegistry::placed(const EventTag& tag, EventId id) const {
    const Entry& e = entry(tag);
    if (e.placed) e.placed(tag, id);
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
