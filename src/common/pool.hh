/**
 * @file
 * Free-list pool of fixed-type objects with stable addresses.
 *
 * Transaction state that outlives one event -- an invalidation
 * fan-in, a broadcast write's join, a snoop broadcast's join -- lives
 * in a pool entry, and the events that advance it capture only the
 * entry's pointer. Entries are carved from chunks that are never
 * moved or freed while the pool lives, so a pointer stays valid across
 * growth; a released entry goes back on the free list and is handed
 * out again. The pool grows lazily, a chunk at a time, so steady
 * state allocates nothing and the chunk count is the high-water mark.
 *
 * Not thread-safe: acquire() and release() must run on the owner's
 * queue. Other threads may read or write an entry's fields through
 * its pointer while they hold it (the kernel's barriers order those
 * accesses), but never touch the free list.
 */

#ifndef C3DSIM_COMMON_POOL_HH
#define C3DSIM_COMMON_POOL_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace c3d
{

template <typename T>
class Pool
{
  public:
    /** A value-initialized entry. */
    T *
    acquire()
    {
        if (freeList.empty())
            grow();
        T *p = freeList.back();
        freeList.pop_back();
        *p = T{};
        return p;
    }

    /** Return @p p (from this pool's acquire()) to the free list. */
    void release(T *p) { freeList.push_back(p); }

  private:
    static constexpr std::size_t ChunkSize = 32;

    void
    grow()
    {
        chunks.push_back(std::make_unique<T[]>(ChunkSize));
        T *chunk = chunks.back().get();
        // Hand out low addresses first.
        for (std::size_t i = ChunkSize; i-- > 0;)
            freeList.push_back(&chunk[i]);
    }

    std::vector<std::unique_ptr<T[]>> chunks;
    std::vector<T *> freeList;
};

} // namespace c3d

#endif // C3DSIM_COMMON_POOL_HH
