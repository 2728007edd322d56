#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/callback.hpp"
#include "sim/event_tag.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace cocoa::sim::ckpt {

/// Version of the checkpoint blob layout. Bumped whenever any subsystem's
/// save_state layout changes; Reader::read_header rejects mismatches instead
/// of mis-parsing. See docs/checkpointing.md for the format contract.
inline constexpr std::uint32_t kFormatVersion = 4;

/// What kind of run the blob captures; selects the restore orchestrator.
enum class Flavor : std::uint32_t {
    kScenario = 1,  ///< core::Scenario (optionally with an armed fault plan)
    kSwarm = 2,     ///< core::Swarm large-N family
};

/// Serializer for checkpoint blobs: explicit little-endian fixed-width
/// primitives, so a blob written on any supported platform parses on any
/// other. Append-only; the layout *is* the format, guarded by kFormatVersion.
class Writer {
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    /// `words.size()` u64s in one append: a memcpy on little-endian hosts.
    void u64s(std::span<const std::uint64_t> words) {
        if constexpr (std::endian::native == std::endian::little) {
            buf_.append(reinterpret_cast<const char*>(words.data()), words.size_bytes());
        } else {
            for (const std::uint64_t v : words) u64(v);
        }
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void time(TimePoint t) { i64(t.to_nanos()); }
    void dur(Duration d) { i64(d.to_nanos()); }
    void str(std::string_view s) {
        u64(s.size());
        buf_.append(s.data(), s.size());
    }
    /// Section sentinel: cheap structural self-check. Reader::expect throws
    /// with both values when save and load walk different layouts.
    void mark(std::uint32_t sentinel) { u32(sentinel); }

    const std::string& buffer() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/// Deserializer over a blob. Every accessor throws std::runtime_error on
/// truncation; expect() throws on sentinel mismatch. Restoring from a
/// corrupt or stale blob must fail loudly, never half-apply.
class Reader {
  public:
    explicit Reader(std::string_view data) : p_(data.data()), end_(data.data() + data.size()) {}

    std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(*p_++);
    }
    bool b() { return u8() != 0; }
    std::uint32_t u32() {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
        return v;
    }
    std::uint64_t u64() {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
        return v;
    }
    /// Fills `out` with what Writer::u64s wrote, after one bounds check.
    void u64s(std::span<std::uint64_t> out) {
        need(out.size_bytes());
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(out.data(), p_, out.size_bytes());
            p_ += out.size_bytes();
        } else {
            for (std::uint64_t& v : out) v = u64();
        }
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    TimePoint time() { return TimePoint::from_nanos(i64()); }
    Duration dur() { return Duration::nanos(i64()); }
    std::string str() {
        const std::uint64_t n = u64();
        need(n);
        std::string s(p_, n);
        p_ += n;
        return s;
    }
    void expect(std::uint32_t sentinel);

    /// Reads an enum saved as its underlying value: a u8 for enums with a
    /// one-byte underlying type, a u32 otherwise. Throws std::runtime_error
    /// naming the value when it lies outside [0, last], so a corrupt blob
    /// can never hand a switch or an array index an enumerator the type
    /// does not have.
    template <typename E>
    E enumerator(E last) {
        static_assert(std::is_enum_v<E>);
        const std::uint32_t v = sizeof(E) == 1 ? u8() : u32();
        const auto max = static_cast<std::uint32_t>(last);
        if (v > max) bad_enumerator(v, max);
        return static_cast<E>(v);
    }

    bool at_end() const { return p_ == end_; }
    /// Throws unless the whole blob was consumed (catches layout drift that
    /// happens to stay in-bounds).
    void expect_end() const;

  private:
    void need(std::uint64_t n) const;
    [[noreturn]] static void bad_enumerator(std::uint32_t value, std::uint32_t max);
    const char* p_;
    const char* end_;
};

/// `magic | format version | flavor` prefix on every blob.
void write_header(Writer& w, Flavor flavor);
/// Throws std::runtime_error on bad magic or version mismatch.
Flavor read_header(Reader& r);

/// Maps EventKind values back to executable callbacks at restore time.
///
/// Subsystems register one rebuilder per kind they schedule (via their
/// register_rebuilders hook); Simulator::load_kernel then walks the blob's
/// pending-event list and re-creates each callback with its original
/// (time, seq) — which is what makes the restored run's pop order, and
/// therefore its physics, byte-identical to the straight run.
class CallbackRegistry {
  public:
    /// Builds the callback for one tagged event.
    using Make = std::function<InplaceCallback(const EventTag&)>;
    /// Optional: invoked with the EventId the rebuilt event received, so
    /// owners that track their timer (Radio::attempt_event_, ODMRP decision
    /// events) re-learn the handle.
    using Placed = std::function<void(const EventTag&, EventId)>;

    /// Throws std::logic_error on duplicate registration of a kind.
    void add(EventKind kind, Make make, Placed placed = nullptr);

    bool contains(EventKind kind) const {
        return entries_.contains(static_cast<std::uint32_t>(kind));
    }
    /// Throws std::runtime_error for unknown kinds (blob/binary mismatch).
    InplaceCallback make(const EventTag& tag) const;
    void placed(const EventTag& tag, EventId id) const;

  private:
    struct Entry {
        Make make;
        Placed placed;
    };
    const Entry& entry(const EventTag& tag) const;
    std::unordered_map<std::uint32_t, Entry> entries_;
};

/// File helpers for the cross-process path (`cocoa_sim --checkpoint-out` /
/// `--restore`). Throw std::runtime_error on I/O failure.
void write_blob_file(const std::string& path, std::string_view blob);
std::string read_blob_file(const std::string& path);

}  // namespace cocoa::sim::ckpt
