#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "geom/vec2.hpp"
#include "sim/fields.hpp"
#include "sim/pool.hpp"
#include "sim/time.hpp"

/// Checkpoint blobs. Every checkpointed state is walked once: a class
/// declares `template <typename Ar, typename Self> static void walk(Ar& ar,
/// Self& self)` and lists its state in blob order as `ar(a, b, ...)`. Saving
/// runs the walk with a Writer (Self is const), restoring with a Reader, so
/// a field's place in the blob is written in one spot and save and load
/// cannot drift apart. Steps only a restore takes (re-linking, checks,
/// rebuilding derived state) sit beside the walk under
/// `if constexpr (Ar::loading)`. See docs/checkpointing.md.
///
/// How `ar(v)` encodes v, little-endian and fixed-width throughout:
///   bool, 1-byte integers and enums    1 byte
///   2- and 4-byte integers and enums   4 bytes
///   8-byte integers, double            8 bytes (a double by its bits)
///   TimePoint, Duration                8 bytes of nanoseconds
///   geom::Vec2                         x, y
///   std::array                         its elements
///   vector, deque, set, map            u64 count, then the elements
///   std::optional                      a bool, then the value if present
///   std::pair                          first, second
///   std::variant                       the u8 index, then the alternative
///   std::shared_ptr<const T>           u32 id, then T the first time (below)
///   a class with a static walk()       what its walk() walks
///   a struct with a fields() list      its fields in list order
///   any other aggregate                its members in declaration order
/// A restore rejects an enum above its last enumerator (the field rule's
/// bound, else `last_enumerator(E)` found by ADL beside the enum) and a
/// count that the bytes left could not hold.
namespace cocoa::sim::ckpt {

/// Version of the checkpoint blob layout. Bumped whenever any subsystem's
/// walk changes the layout; read_header rejects mismatches instead of
/// mis-parsing. See docs/checkpointing.md for the format contract.
inline constexpr std::uint32_t kFormatVersion = 4;

/// What kind of run the blob captures; selects the restore orchestrator.
enum class Flavor : std::uint32_t {
    kScenario = 1,  ///< core::Scenario (optionally with an armed fault plan)
    kSwarm = 2,     ///< core::Swarm large-N family
};

/// A container whose size the live object already knows (one entry per
/// robot, say): saved with its count like any container, but a restore
/// requires the count to equal the live size and walks the elements in
/// place.
template <typename C>
struct Fixed {
    C& items;
};
template <typename C>
Fixed<C> fixed(C& items) {
    return {items};
}

namespace detail {
template <typename Ar, typename T>
void walk(Ar& ar, T& v);
template <typename Ar, typename P>
void walk_shared(Ar& ar, P& p);
template <typename T>
constexpr std::size_t min_bytes();
}  // namespace detail

/// Builds a blob. Append-only; the layout *is* the format, guarded by
/// kFormatVersion.
class Writer {
  public:
    static constexpr bool loading = false;

    /// Appends each value in order.
    template <typename... T>
    void operator()(const T&... v) {
        (detail::walk(*this, v), ...);
    }
    /// Section sentinel: a cheap structural self-check that Reader::mark
    /// verifies.
    void mark(std::uint32_t sentinel) { word(sentinel); }
    /// Writes the element count of `items`, which the walk then appends.
    template <typename C>
    std::size_t count(const C& items) {
        word(static_cast<std::uint64_t>(items.size()));
        return items.size();
    }

    /// One unsigned integer in sizeof(U) little-endian bytes.
    template <typename U>
    void word(const U& v) {
        for (std::size_t i = 0; i < sizeof(U); ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
    }
    /// `words.size()` u64s in one append: a memcpy on little-endian hosts.
    void u64s(std::span<const std::uint64_t> words) {
        if constexpr (std::endian::native == std::endian::little) {
            buf_.append(reinterpret_cast<const char*>(words.data()), words.size_bytes());
        } else {
            for (const std::uint64_t v : words) word(v);
        }
    }
    void u32(std::uint32_t v) { word(v); }
    void u64(std::uint64_t v) { word(v); }
    void i64(std::int64_t v) { (*this)(v); }
    void f64(double v) { (*this)(v); }
    /// The length as a u64, then the bytes.
    void str(std::string_view s) {
        u64(s.size());
        buf_.append(s);
    }

    /// Byte offset of the next write.
    std::size_t offset() const { return buf_.size(); }
    const std::string& buffer() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    template <typename Ar, typename P>
    friend void detail::walk_shared(Ar& ar, P& p);

    std::string buf_;
    /// Dense id of every shared object written so far, in first-write order.
    std::unordered_map<const void*, std::uint32_t> shared_ids_;
};

/// Parses a blob. Every step throws std::runtime_error on truncation or on
/// a value the walk rejects: restoring from a corrupt or stale blob must
/// fail loudly, never half-apply.
class Reader {
  public:
    static constexpr bool loading = true;

    explicit Reader(std::string_view data)
        : begin_(data.data()), p_(data.data()), end_(data.data() + data.size()) {}

    /// Reads each value in order.
    template <typename... T>
    void operator()(T&&... v) {
        (detail::walk(*this, v), ...);
    }
    /// Throws with both values unless the next u32 is `sentinel`.
    void mark(std::uint32_t sentinel);
    /// Reads the element count of a container of `items`' type and checks
    /// that that many elements of their least encoded size fit in the bytes
    /// left, so no count can make a restore allocate past the blob.
    template <typename C>
    std::size_t count(const C& /*items*/) {
        return checked_count(detail::min_bytes<typename C::value_type>());
    }

    /// Reads what Writer::word wrote.
    template <typename U>
    void word(U& v) {
        need(sizeof(U));
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < sizeof(U); ++i) {
            x |= std::uint64_t{static_cast<unsigned char>(p_[i])} << (8 * i);
        }
        p_ += sizeof(U);
        v = static_cast<U>(x);
    }
    /// Fills `out` with what Writer::u64s wrote, after one bounds check.
    void u64s(std::span<std::uint64_t> out) {
        need(out.size_bytes());
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(out.data(), p_, out.size_bytes());
            p_ += out.size_bytes();
        } else {
            for (std::uint64_t& v : out) word(v);
        }
    }
    std::uint64_t u64() {
        std::uint64_t v = 0;
        word(v);
        return v;
    }

    /// Inner shared objects the blob carries are restored into `pool` (the
    /// medium's packet pool, which live code builds them from); without one
    /// they are heap-allocated.
    void restore_shared_into(std::shared_ptr<SlabCore> pool) {
        shared_pool_ = std::move(pool);
    }

    /// Byte offset of the next read.
    std::size_t offset() const { return static_cast<std::size_t>(p_ - begin_); }
    bool at_end() const { return p_ == end_; }
    /// Throws unless the whole blob was consumed (catches layout drift that
    /// happens to stay in-bounds).
    void expect_end() const;

    /// Throws "checkpoint: <what> <value> outside its valid range [0, max]".
    [[noreturn]] static void out_of_range(const char* what, std::uint64_t value,
                                          std::uint64_t max);
    /// Throws "checkpoint: count <n> at byte <at> ...: <why>".
    [[noreturn]] static void bad_count(std::uint64_t n, std::size_t at,
                                       const std::string& why);

  private:
    template <typename Ar, typename P>
    friend void detail::walk_shared(Ar& ar, P& p);

    void need(std::uint64_t n) const;
    std::size_t checked_count(std::size_t min_element_bytes);

    const char* begin_;
    const char* p_;
    const char* end_;
    std::vector<std::shared_ptr<const void>> shared_;
    std::shared_ptr<SlabCore> shared_pool_;
};

namespace detail {

template <typename T, template <typename...> class Tmpl>
inline constexpr bool is_a = false;
template <template <typename...> class Tmpl, typename... A>
inline constexpr bool is_a<Tmpl<A...>, Tmpl> = true;
template <typename T>
inline constexpr bool is_array = false;
template <typename T, std::size_t N>
inline constexpr bool is_array<std::array<T, N>> = true;
template <typename T>
inline constexpr bool is_fixed = false;
template <typename C>
inline constexpr bool is_fixed<Fixed<C>> = true;

/// The members of aggregate `s` as a tuple of references (const when s is).
template <typename S>
auto members(S& s) {
    constexpr std::size_t n = fields::detail::count_members<std::remove_const_t<S>>();
    static_assert(n >= 1 && n <= 10, "walk(): give this aggregate a walk() of its own");
    if constexpr (n == 1) {
        auto& [a] = s;
        return std::tie(a);
    } else if constexpr (n == 2) {
        auto& [a, b] = s;
        return std::tie(a, b);
    } else if constexpr (n == 3) {
        auto& [a, b, c] = s;
        return std::tie(a, b, c);
    } else if constexpr (n == 4) {
        auto& [a, b, c, d] = s;
        return std::tie(a, b, c, d);
    } else if constexpr (n == 5) {
        auto& [a, b, c, d, e] = s;
        return std::tie(a, b, c, d, e);
    } else if constexpr (n == 6) {
        auto& [a, b, c, d, e, f] = s;
        return std::tie(a, b, c, d, e, f);
    } else if constexpr (n == 7) {
        auto& [a, b, c, d, e, f, g] = s;
        return std::tie(a, b, c, d, e, f, g);
    } else if constexpr (n == 8) {
        auto& [a, b, c, d, e, f, g, h] = s;
        return std::tie(a, b, c, d, e, f, g, h);
    } else if constexpr (n == 9) {
        auto& [a, b, c, d, e, f, g, h, i] = s;
        return std::tie(a, b, c, d, e, f, g, h, i);
    } else {
        auto& [a, b, c, d, e, f, g, h, i, j] = s;
        return std::tie(a, b, c, d, e, f, g, h, i, j);
    }
}

/// The fewest bytes one encoded T can take (1 where it depends on content).
template <typename T>
constexpr std::size_t min_bytes() {
    using V = std::remove_cv_t<T>;
    if constexpr (std::is_arithmetic_v<V> || std::is_enum_v<V>) {
        return sizeof(V) == 2 ? 4 : sizeof(V);
    } else if constexpr (std::is_same_v<V, TimePoint> || std::is_same_v<V, Duration> ||
                         is_a<V, std::vector> || is_a<V, std::deque> || is_a<V, std::set> ||
                         is_a<V, std::map>) {
        return 8;
    } else if constexpr (std::is_same_v<V, geom::Vec2>) {
        return 16;
    } else if constexpr (is_a<V, std::pair>) {
        return min_bytes<typename V::first_type>() + min_bytes<typename V::second_type>();
    } else if constexpr (std::is_aggregate_v<V> && !is_array<V> && !fields::Listed<V> &&
                         !requires(Writer& w, const V& v) { V::walk(w, v); }) {
        using Members = decltype(members(std::declval<V&>()));
        return []<typename... M>(std::tuple<M&...>*) {
            return (min_bytes<M>() + ...);
        }(static_cast<Members*>(nullptr));
    } else {
        return 1;
    }
}

template <typename Ar, typename E>
void walk_enum(Ar& ar, E& e, std::remove_const_t<E> last) {
    static_assert(sizeof(E) == 1 || sizeof(E) == 4);
    using U = std::conditional_t<sizeof(E) == 1, std::uint8_t, std::uint32_t>;
    U v = static_cast<U>(e);
    ar.word(v);
    if constexpr (Ar::loading) {
        if (v > static_cast<U>(last)) Reader::out_of_range("enum value", v, static_cast<U>(last));
        e = static_cast<E>(v);
    }
}

/// A shared_ptr<const T> is walked by identity: the first reference to an
/// object writes a dense id and the object, later ones the id alone, so a
/// restore rebuilds one object per saved one and every reference aliases it
/// again (multicast copies share one inner packet; see docs/checkpointing.md).
///
/// The id table is untyped: net::Packet is the one type walked this way.
template <typename Ar, typename P>
void walk_shared(Ar& ar, P& p) {
    using T = std::remove_const_t<typename std::remove_const_t<P>::element_type>;
    constexpr std::uint32_t kNull = 0xffffffffu;
    std::uint32_t id = kNull;
    if constexpr (!Ar::loading) {
        if (!p) return ar.word(id);
        const auto [it, first] = ar.shared_ids_.try_emplace(
            p.get(), static_cast<std::uint32_t>(ar.shared_ids_.size()));
        ar.word(it->second);
        if (first) walk(ar, *p);
    } else {
        ar.word(id);
        if (id == kNull) {
            p = nullptr;
        } else if (id < ar.shared_.size()) {
            if (!ar.shared_[id]) {
                throw std::runtime_error("checkpoint: cyclic shared-object reference");
            }
            p = std::static_pointer_cast<const T>(ar.shared_[id]);
        } else if (id != ar.shared_.size()) {
            throw std::runtime_error("checkpoint: shared-object id " + std::to_string(id) +
                                     " out of sequence — corrupt blob");
        } else {
            // Reserve the slot before recursing: a nested object takes the
            // next dense id, exactly as the save assigned them (pre-order).
            ar.shared_.push_back(nullptr);
            auto obj = std::allocate_shared<T>(PoolAllocator<T>(ar.shared_pool_));
            walk(ar, *obj);
            ar.shared_[id] = obj;
            p = std::move(obj);
        }
    }
}

template <typename Ar, typename T>
void walk(Ar& ar, T& v) {
    using U = std::remove_const_t<T>;
    if constexpr (std::is_enum_v<U>) {
        walk_enum(ar, v, last_enumerator(U{}));
    } else if constexpr (std::is_same_v<U, bool>) {
        std::uint8_t b = v ? 1 : 0;
        ar.word(b);
        if constexpr (Ar::loading) v = b != 0;
    } else if constexpr (std::is_integral_v<U>) {
        using W = std::conditional_t<
            sizeof(U) == 1, std::uint8_t,
            std::conditional_t<sizeof(U) <= 4, std::uint32_t, std::uint64_t>>;
        W w = static_cast<W>(v);
        ar.word(w);
        if constexpr (Ar::loading) v = static_cast<U>(w);
    } else if constexpr (std::is_same_v<U, double>) {
        std::uint64_t w = std::bit_cast<std::uint64_t>(v);
        ar.word(w);
        if constexpr (Ar::loading) v = std::bit_cast<double>(w);
    } else if constexpr (std::is_same_v<U, TimePoint>) {
        std::int64_t ns = v.to_nanos();
        walk(ar, ns);
        if constexpr (Ar::loading) v = TimePoint::from_nanos(ns);
    } else if constexpr (std::is_same_v<U, Duration>) {
        std::int64_t ns = v.to_nanos();
        walk(ar, ns);
        if constexpr (Ar::loading) v = Duration::nanos(ns);
    } else if constexpr (std::is_same_v<U, geom::Vec2>) {
        ar(v.x, v.y);
    } else if constexpr (is_array<U>) {
        if constexpr (std::is_same_v<typename U::value_type, std::uint64_t>) {
            ar.u64s(v);
        } else {
            for (auto& e : v) walk(ar, e);
        }
    } else if constexpr (is_fixed<U>) {
        const std::size_t at = ar.offset();
        const std::size_t n = ar.count(v.items);
        if (n != v.items.size()) {
            Reader::bad_count(n, at, "the live object holds " + std::to_string(v.items.size()));
        }
        for (auto& e : v.items) walk(ar, e);
    } else if constexpr (is_a<U, std::vector> || is_a<U, std::deque> || is_a<U, std::set> ||
                         is_a<U, std::map>) {
        const std::size_t n = ar.count(v);
        if constexpr (!Ar::loading) {
            for (const auto& e : v) walk(ar, e);
        } else {
            v.clear();
            if constexpr (is_a<U, std::vector>) v.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                if constexpr (is_a<U, std::map>) {
                    std::pair<typename U::key_type, typename U::mapped_type> e;
                    ar(e.first, e.second);
                    v.insert(std::move(e));
                } else if constexpr (is_a<U, std::set>) {
                    typename U::value_type e{};
                    walk(ar, e);
                    v.insert(std::move(e));
                } else {
                    walk(ar, v.emplace_back());
                }
            }
        }
    } else if constexpr (is_a<U, std::optional>) {
        bool present = v.has_value();
        walk(ar, present);
        if constexpr (Ar::loading) {
            if (present) {
                v.emplace();
            } else {
                v.reset();
            }
        }
        if (present) walk(ar, *v);
    } else if constexpr (is_a<U, std::pair>) {
        ar(v.first, v.second);
    } else if constexpr (is_a<U, std::variant>) {
        auto index = static_cast<std::uint8_t>(v.index());
        ar.word(index);
        if constexpr (Ar::loading) {
            constexpr std::size_t n = std::variant_size_v<U>;
            if (index >= n) Reader::out_of_range("variant index", index, n - 1);
            [&]<std::size_t... I>(std::index_sequence<I...>) {
                ((index == I ? (void)v.template emplace<I>() : void()), ...);
            }(std::make_index_sequence<n>{});
        }
        std::visit([&ar](auto& alt) { walk(ar, alt); }, v);
    } else if constexpr (is_a<U, std::shared_ptr>) {
        static_assert(std::is_const_v<typename U::element_type>,
                      "walk(): only shared_ptr<const T> is walked by identity");
        walk_shared(ar, v);
    } else if constexpr (requires { U::walk(ar, v); }) {
        U::walk(ar, v);
    } else if constexpr (fields::Listed<U>) {
        const auto one = [&ar]<typename F>(F& f, const fields::Rule& rule) {
            if constexpr (std::is_enum_v<std::remove_const_t<F>>) {
                walk_enum(ar, f, static_cast<std::remove_const_t<F>>(rule.hi));
            } else {
                walk(ar, f);
            }
        };
        std::apply([&](const auto&... f) { (one(v.*f.member, f.rule), ...); }, U::fields());
    } else {
        static_assert(std::is_aggregate_v<U>, "walk(): no encoding for this type");
        std::apply([&ar](auto&... m) { (walk(ar, m), ...); }, members(v));
    }
}

}  // namespace detail

/// `magic | format version | flavor` prefix on every blob.
void write_header(Writer& w, Flavor flavor);
/// Throws std::runtime_error on bad magic or version mismatch.
Flavor read_header(Reader& r);

/// File helpers for the cross-process path (`cocoa_sim --checkpoint-out` /
/// `--restore`). Throw std::runtime_error on I/O failure.
void write_blob_file(const std::string& path, std::string_view blob);
std::string read_blob_file(const std::string& path);

}  // namespace cocoa::sim::ckpt
