/**
 * @file
 * Region-based DRAM-cache presence predictor (Table II: 4K-entry,
 * region-based, 2-cycle), in the spirit of Qureshi & Loh's memory
 * access predictor.
 *
 * We keep a direct-mapped table of per-region block counters:
 * insertions increment, evictions/invalidations decrement. Hash
 * collisions merge regions, so a counter is the exact sum of cached
 * blocks across the aliasing regions -- the predictor may report
 * "present" for an absent block (wasted DRAM-cache probe) but never
 * "absent" for a present one. The conservative direction is required
 * for correctness in dirty-cache designs (§III-A): a dirty block must
 * never be hidden from a probe.
 */

#ifndef C3DSIM_DRAMCACHE_MISS_PREDICTOR_HH
#define C3DSIM_DRAMCACHE_MISS_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace c3d
{

/** Counting presence filter over memory regions. */
class MissPredictor
{
  public:
    void
    init(std::uint32_t num_entries, std::uint32_t region_bytes,
         StatGroup *stats, const std::string &name)
    {
        c3d_assert(num_entries > 0, "predictor needs entries");
        c3d_assert((region_bytes & (region_bytes - 1)) == 0,
                   "region size must be a power of two");
        counters.assign(num_entries, 0);
        regionShift = __builtin_ctz(region_bytes);
        queries.init(stats, name + ".queries", "presence queries");
        predictedAbsent.init(stats, name + ".predicted_absent",
                             "queries short-circuited as absent");
        falsePresent.init(stats, name + ".false_present",
                          "present predictions that probed and missed");
    }

    /** Predict whether the block at @p addr may be cached. */
    bool
    mayBePresent(Addr addr)
    {
        ++queries;
        const bool present = counters[slot(addr)] > 0;
        if (!present)
            ++predictedAbsent;
        return present;
    }

    /** Record that a probe made on a "present" prediction missed. */
    void recordFalsePresent() { ++falsePresent; }

    /** Account a query answered exactly (MissMap mode). */
    void
    recordExactQuery(bool present)
    {
        ++queries;
        if (!present)
            ++predictedAbsent;
    }

    /** A block in this region was inserted into the DRAM cache. */
    void onInsert(Addr addr) { ++counters[slot(addr)]; }

    /** A block in this region left the DRAM cache. */
    void
    onRemove(Addr addr)
    {
        auto &c = counters[slot(addr)];
        c3d_assert(c > 0, "predictor counter underflow");
        --c;
    }

    std::uint64_t absentPredictions() const
    {
        return predictedAbsent.value();
    }

  private:
    std::uint32_t
    slot(Addr addr) const
    {
        // Multiplicative hash of the region number.
        const Addr region = addr >> regionShift;
        return static_cast<std::uint32_t>(
            (region * 0x9e3779b97f4a7c15ull) >> 32) % counters.size();
    }

    std::vector<std::uint32_t> counters;
    std::uint32_t regionShift = 12;
    Counter queries;
    Counter predictedAbsent;
    Counter falsePresent;
};

} // namespace c3d

#endif // C3DSIM_DRAMCACHE_MISS_PREDICTOR_HH
