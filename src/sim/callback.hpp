#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cocoa::sim {

template <typename Signature>
class InplaceFunction;

/// Move-only type-erased `void(Args...)` callable with a 48-byte small buffer.
///
/// Simulation callbacks are overwhelmingly tiny lambda captures — a `this`
/// pointer plus a couple of scalars, or a shared_ptr<AirFrame> and a verdict.
/// `std::function` heap-allocates many of them and requires copyability;
/// InplaceFunction instead stores any nothrow-move-constructible callable of
/// at most kInlineSize bytes directly inside the object. Larger callables (or
/// ones with throwing moves) fall back to a single heap allocation, observable
/// via on_heap() — the event queue counts those as SBO misses so the fast
/// path's zero-allocation claim is measurable, not aspirational.
template <typename... Args>
class InplaceFunction<void(Args...)> {
  public:
    static constexpr std::size_t kInlineSize = 48;
    static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

    InplaceFunction() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, InplaceFunction> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F>&, Args...>>>
    InplaceFunction(F&& f) {  // NOLINT: implicit, mirrors std::function
        using Fn = std::remove_cvref_t<F>;
        if constexpr (fits_inline<Fn>()) {
            ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
            ops_ = &InlineOps<Fn>::ops;
        } else {
            ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
            ops_ = &HeapOps<Fn>::ops;
        }
    }

    InplaceFunction(InplaceFunction&& other) noexcept {
        if (other.ops_ != nullptr) {
            other.ops_->relocate(storage_, other.storage_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    InplaceFunction& operator=(InplaceFunction&& other) noexcept {
        if (this != &other) {
            reset();
            if (other.ops_ != nullptr) {
                other.ops_->relocate(storage_, other.storage_);
                ops_ = other.ops_;
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    InplaceFunction(const InplaceFunction&) = delete;
    InplaceFunction& operator=(const InplaceFunction&) = delete;

    ~InplaceFunction() { reset(); }

    /// Invokes the stored callable. Precondition: bool(*this).
    void operator()(Args... args) { ops_->invoke(storage_, std::forward<Args>(args)...); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /// True when the callable did not fit the small buffer and lives on the
    /// heap. Empty callbacks report false.
    bool on_heap() const noexcept { return ops_ != nullptr && ops_->heap; }

    /// Destroys the stored callable (releasing anything it captured) and
    /// leaves the callback empty.
    void reset() noexcept {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops {
        void (*invoke)(void* storage, Args... args);
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void* storage) noexcept;
        bool heap;
    };

    template <typename Fn>
    static constexpr bool fits_inline() {
        return sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    struct InlineOps {
        static Fn* get(void* s) { return std::launder(reinterpret_cast<Fn*>(s)); }
        static void invoke(void* s, Args... args) {
            (*get(s))(std::forward<Args>(args)...);
        }
        static void relocate(void* dst, void* src) noexcept {
            Fn* from = get(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        }
        static void destroy(void* s) noexcept { get(s)->~Fn(); }
        static constexpr Ops ops{&invoke, &relocate, &destroy, false};
    };

    template <typename Fn>
    struct HeapOps {
        static Fn* get(void* s) {
            return *std::launder(reinterpret_cast<Fn**>(s));
        }
        static void invoke(void* s, Args... args) {
            (*get(s))(std::forward<Args>(args)...);
        }
        static void relocate(void* dst, void* src) noexcept {
            ::new (dst) Fn*(get(src));
        }
        static void destroy(void* s) noexcept { delete get(s); }
        static constexpr Ops ops{&invoke, &relocate, &destroy, true};
    };

    alignas(kInlineAlign) unsigned char storage_[kInlineSize];
    const Ops* ops_ = nullptr;
};

/// The event kernel's callback: one scheduled action.
using InplaceCallback = InplaceFunction<void()>;

}  // namespace cocoa::sim
