/**
 * @file
 * The N-lane ensemble arena shared by the compiled engines.
 *
 * An Arena is the single uint64_t store every tape instruction
 * addresses by limb offset.  It holds N independent simulations
 * ("lanes") in a lane-strided structure-of-arrays layout: each
 * allocated word owns nlimbs(width) limbs PER LANE, lanes contiguous,
 *
 *     slot ──▶ [lane0: limb0..limbK-1][lane1: limb0..limbK-1] ...
 *
 * so lane l of a word allocated at `slot` lives at
 * slot + l * nlimbs(width), and for the single-limb words that
 * dominate real designs one op's N lane values are N consecutive
 * limbs — the shape the laned kernels in support/limbops.hh stream
 * over with a unit stride.  A 1-lane Arena degenerates to the
 * pre-ensemble flat layout (identical offsets, identical codegen).
 *
 * Allocation is a two-phase bump: alloc()/align() during engine
 * compilation, then one seal() that materialises the zeroed storage.
 * The storage itself starts on a cache line, so align() starts a
 * region on a cache-line boundary in memory, not just in offsets — the
 * partition-parallel engine aligns every per-process region and
 * register-file owner group so distinct worker threads never write
 * the same line.  An Arena is copyable: a copy is a second bank with
 * the same layout (the partition-parallel engine double-banks its
 * state this way).
 *
 * The layout is engine-family-neutral (the ISA tape interpreter
 * lane-strides its register file the same way), so it lives in the
 * shared lane-execution layer rather than src/netlist/.
 */

#ifndef MANTICORE_EXEC_ARENA_HH
#define MANTICORE_EXEC_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "support/bitvector.hh"
#include "support/limbops.hh"
#include "support/logging.hh"

namespace manticore::exec {

/** Bytes per cache line: the alignment of Arena storage. */
inline constexpr size_t kCacheLine = 64;

/** Minimal allocator handing out cache-line-aligned blocks. */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t{kCacheLine}));
    }

    void
    deallocate(T *p, size_t)
    {
        ::operator delete(p, std::align_val_t{kCacheLine});
    }

    template <typename U>
    bool operator==(const CacheLineAllocator<U> &) const
    {
        return true;
    }
    template <typename U>
    bool operator!=(const CacheLineAllocator<U> &) const
    {
        return false;
    }
};

class Arena
{
  public:
    explicit Arena(unsigned lanes = 1) : _lanes(lanes)
    {
        MANTICORE_ASSERT(lanes >= 1, "arena needs at least one lane");
    }

    unsigned lanes() const { return _lanes; }

    /** Reserve a lane-strided block for one width-bit word; returns
     *  the lane-0 limb offset (lane l lives at the returned slot
     *  + l * nlimbs(width)). */
    uint32_t
    alloc(unsigned width)
    {
        MANTICORE_ASSERT(!_sealed, "arena is sealed");
        uint64_t slot = _offset;
        _offset += static_cast<uint64_t>(limbops::nlimbs(width)) * _lanes;
        MANTICORE_ASSERT(_offset <= kMaxSlots,
                         "design x lanes too large for 32-bit slots");
        return static_cast<uint32_t>(slot);
    }

    /** Cache-line align (8 limbs = 64 bytes) the next allocation. */
    void
    align()
    {
        MANTICORE_ASSERT(!_sealed, "arena is sealed");
        constexpr uint64_t kLimbs = kCacheLine / sizeof(uint64_t);
        _offset = (_offset + kLimbs - 1) & ~(kLimbs - 1);
    }

    /** Materialise the zeroed storage; no further alloc()s. */
    void
    seal()
    {
        MANTICORE_ASSERT(!_sealed, "arena sealed twice");
        _sealed = true;
        _limbs.assign(_offset, 0);
    }

    size_t limbs() const { return _limbs.size(); }
    uint64_t *data() { return _limbs.data(); }
    const uint64_t *data() const { return _limbs.data(); }

    /** Lane l's limbs of the word allocated at slot. */
    uint64_t *
    at(uint32_t slot, unsigned width, unsigned lane)
    {
        MANTICORE_ASSERT(lane < _lanes, "bad arena lane ", lane);
        return &_limbs[slot +
                       static_cast<size_t>(lane) * limbops::nlimbs(width)];
    }

    const uint64_t *
    at(uint32_t slot, unsigned width, unsigned lane) const
    {
        MANTICORE_ASSERT(lane < _lanes, "bad arena lane ", lane);
        return &_limbs[slot +
                       static_cast<size_t>(lane) * limbops::nlimbs(width)];
    }

    /** Materialise one lane's value (cold accessor paths). */
    BitVector read(uint32_t slot, unsigned width, unsigned lane) const;

    /** Drive one lane of a word. */
    void write(uint32_t slot, unsigned lane, const BitVector &value);

    /** Drive every lane of a word with the same value (constants,
     *  register init, broadcast stimulus). */
    void broadcast(uint32_t slot, const BitVector &value);

  private:
    static constexpr uint64_t kMaxSlots = ~uint32_t{0};

    unsigned _lanes;
    uint64_t _offset = 0;
    bool _sealed = false;
    std::vector<uint64_t, CacheLineAllocator<uint64_t>> _limbs;
};

} // namespace manticore::exec

#endif // MANTICORE_EXEC_ARENA_HH
