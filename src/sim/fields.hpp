#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "sim/time.hpp"

/// Field lists: each config struct declares its fields once, beside its
/// members, as `static constexpr auto fields()` returning a tuple of
/// field("name", &Struct::member, rule) entries in checkpoint order, followed
/// by `static_assert(sim::fields::lists_every_member<Struct>())`. The
/// checkpoint walk (sim/checkpoint.hpp) saves and loads the fields in list
/// order, and this header derives from the list the per-field range check
/// behind the struct's validate(). A member whose type has its own list is a
/// nested struct: it is walked and checked inline, and its fields are named
/// by path ("channel.exponent_near").
namespace cocoa::sim::fields {

/// The range a field's value must lie in, compared as a double: a Duration
/// in nanoseconds, an enum as its underlying value. NaN fails every rule.
struct Rule {
    double lo = -std::numeric_limits<double>::infinity();
    bool lo_open = false;
    double hi = std::numeric_limits<double>::infinity();
    bool hi_open = false;
    bool finite = false;

    bool admits(double v) const {
        return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi) &&
               (!finite || std::isfinite(v));
    }
};

inline constexpr Rule number{};  ///< anything but NaN (every int and bool)
inline constexpr Rule finite{.finite = true};
inline constexpr Rule non_negative{.lo = 0.0, .finite = true};
inline constexpr Rule positive{.lo = 0.0, .lo_open = true, .finite = true};
constexpr Rule at_least(double lo) { return {.lo = lo, .finite = true}; }
/// An enum field: [0, last]. A checkpoint restore rejects a value outside
/// it.
template <typename E>
constexpr Rule up_to(E last) {
    return {.lo = 0.0, .hi = static_cast<double>(last)};
}

template <typename S, typename T>
struct Field {
    std::string_view name;
    T S::*member;
    Rule rule;
};

template <typename S, typename T>
constexpr Field<S, T> field(std::string_view name, T S::*member, Rule rule = number) {
    return {name, member, rule};
}

/// A struct that declares a field list.
template <typename T>
concept Listed = requires { T::fields(); };

namespace detail {

/// Converts to any member type; only named in unevaluated operands.
struct AnyMember {
    template <typename T>
    operator T() const;
};

/// The number of members of aggregate S: the most initializers S{...}
/// accepts (the brace-initialisation count Boost.PFR uses).
template <typename S, typename... A>
consteval std::size_t count_members() {
    if constexpr (requires { S{A{}..., AnyMember{}}; }) {
        return count_members<S, A..., AnyMember>();
    } else {
        return sizeof...(A);
    }
}

/// "finite and > 0", ">= 1", "in [0, 1)", "a number", ...
inline std::string describe(const Rule& r, bool floating) {
    const auto num = [](double v) {
        char buf[32];
        return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    };
    if (r.hi != std::numeric_limits<double>::infinity()) {
        return std::string("in ") + (r.lo_open ? "(" : "[") + num(r.lo) + ", " + num(r.hi) +
               (r.hi_open ? ")" : "]");
    }
    const std::string fin = r.finite && floating ? "finite" : "";
    if (r.lo == -std::numeric_limits<double>::infinity()) return fin.empty() ? "a number" : fin;
    return (fin.empty() ? "" : fin + " and ") + (r.lo_open ? "> " : ">= ") + num(r.lo);
}

template <typename T>
double as_double(const T& v) {
    if constexpr (std::is_same_v<T, Duration>) {
        return static_cast<double>(v.to_nanos());
    } else {
        return static_cast<double>(v);
    }
}

/// `prefix` is the path of `s` inside the root, "" or ending in '.'.
template <Listed S>
void check(const S& s, std::string_view root, const std::string& prefix) {
    const auto one = [&]<typename T>(const Field<S, T>& f) {
        if constexpr (Listed<T>) {
            check(s.*f.member, root, prefix + std::string(f.name) + ".");
        } else if (!f.rule.admits(as_double(s.*f.member))) {
            throw std::invalid_argument(std::string(root) + ": " + prefix +
                                        std::string(f.name) + " must be " +
                                        describe(f.rule, std::is_floating_point_v<T>));
        }
    };
    std::apply([&](const auto&... f) { (one(f), ...); }, S::fields());
}

}  // namespace detail

/// True when S's list has one entry per member of S: the static_assert
/// beside each struct fails to compile when a member is left off.
template <Listed S>
consteval bool lists_every_member() {
    return std::tuple_size_v<decltype(S::fields())> == detail::count_members<S>();
}

/// Throws std::invalid_argument "<root>: <prefix><path> must be <rule>" for
/// the first field of `s`, in list order and nested lists included, whose
/// value its rule rejects. `prefix` is the path of `s` inside the root, ""
/// or ending in '.'.
template <Listed S>
void check(const S& s, std::string_view root, const std::string& prefix = "") {
    detail::check(s, root, prefix);
}

}  // namespace cocoa::sim::fields
