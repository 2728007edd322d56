#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cocoa::sim {

/// Allocation statistics for one SlabCore. All three counters are stable
/// uint64_t lvalues so they can be registered directly with
/// obs::CounterRegistry.
struct PoolStats {
    std::uint64_t reused = 0;    ///< served from the free list (zero heap work)
    std::uint64_t fresh = 0;     ///< carved from a new or partially-used slab
    std::uint64_t oversize = 0;  ///< bypassed the pool (request too big/aligned)
};

/// Type-erased slab of fixed-size blocks with an intrusive free list.
///
/// The block size is learned from the first pool-eligible allocation and never
/// changes afterwards; later requests at most that size are served from the
/// free list or by bump-carving a slab, while larger (or over-aligned)
/// requests fall through to plain operator new and count as `oversize`. This
/// fits the simulator's usage exactly: each core is dedicated to one object
/// shape (AirFrame control-block+object, a sensed_by verdict block of
/// `radios` bytes, a Packet), so steady-state traffic recycles the free list
/// and allocates nothing.
///
/// Lifetime: consumers hold the core via shared_ptr (see PoolAllocator), so
/// blocks may safely outlive the component that created the pool — e.g. event
/// queue callbacks holding shared_ptr<AirFrame> past mac::Medium destruction.
/// Not thread-safe; each Simulator owns its pools (shared-nothing
/// replications).
class SlabCore {
  public:
    SlabCore() = default;
    ~SlabCore() {
        for (void* slab : slabs_) ::operator delete(slab);
    }

    SlabCore(const SlabCore&) = delete;
    SlabCore& operator=(const SlabCore&) = delete;

    void* allocate(std::size_t bytes, std::size_t align) {
        if (align > alignof(std::max_align_t)) {
            ++stats_.oversize;
            return ::operator new(bytes, std::align_val_t(align));
        }
        if (block_size_ == 0) {
            block_size_ = bytes < sizeof(FreeNode) ? sizeof(FreeNode) : bytes;
        }
        if (bytes > block_size_) {
            ++stats_.oversize;
            return ::operator new(bytes);
        }
        if (free_ != nullptr) {
            ++stats_.reused;
            FreeNode* node = free_;
            free_ = node->next;
            return node;
        }
        ++stats_.fresh;
        return carve_block();
    }

    void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
        // Mirrors the classification in allocate(); block_size_ only ever
        // transitions 0 -> fixed, so a block classifies the same way on both
        // sides of its lifetime.
        if (align > alignof(std::max_align_t)) {
            ::operator delete(p, std::align_val_t(align));
            return;
        }
        if (block_size_ == 0 || bytes > block_size_) {
            ::operator delete(p);
            return;
        }
        FreeNode* node = static_cast<FreeNode*>(p);
        node->next = free_;
        free_ = node;
    }

    const PoolStats& stats() const { return stats_; }
    std::size_t block_size() const { return block_size_; }

    // ------------------------------------------------------------------
    // Checkpoint warmth protocol. A pool's observable behaviour is entirely
    // (block_size_, free-list length, stats_): restore sets the learned block
    // size, re-acquires the live objects (transiently perturbing stats_),
    // refills the free list to the saved length, then overwrites stats_
    // verbatim (walk() below) — after which reuse/fresh/oversize counts
    // evolve exactly as the straight run's would.
    // ------------------------------------------------------------------

    /// Length of the free list (O(free blocks); checkpoint path only).
    std::size_t free_count() const {
        std::size_t n = 0;
        for (const FreeNode* node = free_; node != nullptr; node = node->next) ++n;
        return n;
    }

    /// Pre-seeds the learned block size on a fresh core. Throws if the core
    /// already learned a different size (restore-order bug).
    void set_block_size(std::size_t bytes) {
        if (bytes == 0) return;
        if (block_size_ != 0 && block_size_ != bytes) {
            throw std::logic_error("SlabCore::set_block_size: size already learned");
        }
        block_size_ = bytes;
    }

    /// Carves `n` blocks and parks them on the free list (block size must be
    /// set). Restores the free-list length so post-restore reused/fresh
    /// classification matches the straight run.
    void add_free_blocks(std::size_t n) {
        if (n == 0) return;
        if (block_size_ == 0) {
            throw std::logic_error("SlabCore::add_free_blocks: block size unset");
        }
        for (std::size_t i = 0; i < n; ++i) {
            FreeNode* node = static_cast<FreeNode*>(carve_block());
            node->next = free_;
            free_ = node;
        }
    }

    /// Checkpoint walk (sim/checkpoint.hpp): the free-list length and the
    /// stats. A restore refills the free list and then stamps the stats.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& core) {
        std::size_t free_blocks = core.free_count();
        PoolStats stats = core.stats_;
        ar(free_blocks, stats);
        if constexpr (Ar::loading) {
            core.add_free_blocks(free_blocks);
            core.stats_ = stats;
        }
    }

  private:
    struct FreeNode {
        FreeNode* next;
    };
    static constexpr std::size_t kBlocksPerSlab = 64;

    std::size_t block_stride() const {
        constexpr std::size_t a = alignof(std::max_align_t);
        return (block_size_ + a - 1) / a * a;
    }

    void* carve_block() {
        if (remaining_ == 0) {
            void* slab = ::operator new(block_stride() * kBlocksPerSlab);
            slabs_.push_back(slab);
            cursor_ = static_cast<unsigned char*>(slab);
            remaining_ = kBlocksPerSlab;
        }
        void* p = cursor_;
        cursor_ += block_stride();
        --remaining_;
        return p;
    }

    std::size_t block_size_ = 0;  ///< 0 until the first eligible allocation
    std::vector<void*> slabs_;
    unsigned char* cursor_ = nullptr;
    std::size_t remaining_ = 0;
    FreeNode* free_ = nullptr;
    PoolStats stats_;
};

/// Standard-library allocator backed by a shared SlabCore.
///
/// Default-constructed (null core) it degrades to plain operator new, so
/// containers declared with this allocator type work unchanged outside a
/// simulation. Copies share the core via shared_ptr: std::allocate_shared
/// stores an allocator copy in the control block and container moves carry
/// the allocator along, which is exactly what keeps the core alive until the
/// last pooled block is returned.
template <typename T>
class PoolAllocator {
  public:
    using value_type = T;

    PoolAllocator() noexcept = default;
    explicit PoolAllocator(std::shared_ptr<SlabCore> core) noexcept
        : core_(std::move(core)) {}
    template <typename U>
    PoolAllocator(const PoolAllocator<U>& other) noexcept : core_(other.core_) {}

    T* allocate(std::size_t n) {
        const std::size_t bytes = n * sizeof(T);
        if (core_) return static_cast<T*>(core_->allocate(bytes, alignof(T)));
        if constexpr (alignof(T) > alignof(std::max_align_t)) {
            return static_cast<T*>(::operator new(bytes, std::align_val_t(alignof(T))));
        }
        return static_cast<T*>(::operator new(bytes));
    }

    void deallocate(T* p, std::size_t n) noexcept {
        const std::size_t bytes = n * sizeof(T);
        if (core_) {
            core_->deallocate(p, bytes, alignof(T));
            return;
        }
        if constexpr (alignof(T) > alignof(std::max_align_t)) {
            ::operator delete(p, std::align_val_t(alignof(T)));
            return;
        }
        ::operator delete(p);
    }

    const std::shared_ptr<SlabCore>& core() const { return core_; }

    friend bool operator==(const PoolAllocator& a, const PoolAllocator& b) {
        return a.core_ == b.core_;
    }

  private:
    template <typename U>
    friend class PoolAllocator;
    std::shared_ptr<SlabCore> core_;
};

/// Convenience wrapper: shared_ptr factory recycling fixed-shape objects.
///
/// acquire() is a drop-in for make_shared<T>: one pooled allocation covers
/// the control block and the object, and once a block has been through the
/// free list the steady state allocates nothing.
template <typename T>
class ObjectPool {
  public:
    ObjectPool() : core_(std::make_shared<SlabCore>()) {}

    template <typename... Args>
    std::shared_ptr<T> acquire(Args&&... args) {
        return std::allocate_shared<T>(PoolAllocator<T>(core_),
                                       std::forward<Args>(args)...);
    }

    const std::shared_ptr<SlabCore>& core() const { return core_; }
    const PoolStats& stats() const { return core_->stats(); }

  private:
    std::shared_ptr<SlabCore> core_;
};

}  // namespace cocoa::sim
