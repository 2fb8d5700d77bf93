/**
 * @file
 * Lightweight statistics framework.
 *
 * Follows the spirit of gem5's stats package at a fraction of the
 * complexity: named scalar counters and histograms register themselves
 * with a StatGroup; groups can be dumped, reset (for warm-up), and
 * queried by name from harness code.
 */

#ifndef C3DSIM_COMMON_STATS_HH
#define C3DSIM_COMMON_STATS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/log.hh"

namespace c3d
{

class StatGroup;

/**
 * A named 64-bit event counter.
 *
 * Increments are relaxed atomics so stats can be bumped from any
 * kernel thread (the parallel per-socket kernel increments shared
 * protocol counters from several workers). Addition commutes, so the
 * final value is independent of thread interleaving — the property
 * the byte-identity harness relies on. Counters are movable (not
 * copyable) because several components hold them in vectors sized at
 * construction time.
 */
class Counter
{
  public:
    Counter() = default;

    Counter(Counter &&other) noexcept
        : statName(std::move(other.statName)),
          statDesc(std::move(other.statDesc)),
          count(other.count.load(std::memory_order_relaxed))
    {}

    Counter &
    operator=(Counter &&other) noexcept
    {
        statName = std::move(other.statName);
        statDesc = std::move(other.statDesc);
        count.store(other.count.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
        return *this;
    }

    /** Register this counter under @p name in @p group. */
    void init(StatGroup *group, std::string name, std::string desc = "");

    Counter &
    operator++()
    {
        count.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        count.fetch_add(n, std::memory_order_relaxed);
        return *this;
    }

    std::uint64_t
    value() const
    {
        return count.load(std::memory_order_relaxed);
    }

    void reset() { count.store(0, std::memory_order_relaxed); }
    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

  private:
    std::string statName;
    std::string statDesc;
    std::atomic<std::uint64_t> count{0};
};

/**
 * A histogram with fixed power-of-two bucketing of sample values.
 *
 * Like Counter, sampling uses relaxed atomics (bucket counts and sums
 * commute; min/max converge to the same extremum under any
 * interleaving via CAS loops), so the aggregate is deterministic no
 * matter which kernel thread recorded each sample.
 */
class Histogram
{
  public:
    Histogram() = default;

    Histogram(Histogram &&other) noexcept
        : statName(std::move(other.statName)),
          statDesc(std::move(other.statDesc)),
          samples(other.samples.load(std::memory_order_relaxed)),
          total(other.total.load(std::memory_order_relaxed)),
          minValue(other.minValue.load(std::memory_order_relaxed)),
          maxValue(other.maxValue.load(std::memory_order_relaxed))
    {
        for (std::size_t b = 0; b < buckets.size(); ++b)
            buckets[b].store(
                other.buckets[b].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    }

    void init(StatGroup *group, std::string name, std::string desc = "");

    void
    sample(std::uint64_t value)
    {
        samples.fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(value, std::memory_order_relaxed);
        std::uint64_t lo = minValue.load(std::memory_order_relaxed);
        while (value < lo &&
               !minValue.compare_exchange_weak(
                   lo, value, std::memory_order_relaxed)) {
        }
        std::uint64_t hi = maxValue.load(std::memory_order_relaxed);
        while (value > hi &&
               !maxValue.compare_exchange_weak(
                   hi, value, std::memory_order_relaxed)) {
        }
        buckets[bucketOf(value)].fetch_add(1,
                                           std::memory_order_relaxed);
    }

    std::uint64_t
    count() const
    {
        return samples.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return total.load(std::memory_order_relaxed);
    }

    std::uint64_t
    min() const
    {
        return count() ? minValue.load(std::memory_order_relaxed) : 0;
    }

    std::uint64_t
    max() const
    {
        return maxValue.load(std::memory_order_relaxed);
    }

    double
    mean() const
    {
        const std::uint64_t n = count();
        return n ? static_cast<double>(sum()) / n : 0.0;
    }

    /** Count of samples in power-of-two bucket @p idx. */
    std::uint64_t
    bucket(unsigned idx) const
    {
        return buckets.at(idx).load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        samples.store(0, std::memory_order_relaxed);
        total.store(0, std::memory_order_relaxed);
        minValue.store(~std::uint64_t(0), std::memory_order_relaxed);
        maxValue.store(0, std::memory_order_relaxed);
        for (auto &b : buckets)
            b.store(0, std::memory_order_relaxed);
    }

    const std::string &name() const { return statName; }

  private:
    static unsigned
    bucketOf(std::uint64_t value)
    {
        if (value == 0)
            return 0;
        return 64 - __builtin_clzll(value);
    }

    std::string statName;
    std::string statDesc;
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> total{0};
    // Sentinel: the first sample always wins the CAS race, so the
    // min is interleaving-independent. min() masks the sentinel.
    std::atomic<std::uint64_t> minValue{~std::uint64_t(0)};
    std::atomic<std::uint64_t> maxValue{0};
    std::array<std::atomic<std::uint64_t>, 64> buckets{};
};

/**
 * A registry of counters and histograms with a hierarchical name.
 *
 * The group does not own the stats; objects embed their stats and
 * register them at init time (so stats live exactly as long as the
 * simulated object that produces them).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : groupName(std::move(name))
    {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    void
    addCounter(Counter *c)
    {
        counters.push_back(c);
    }

    void
    addHistogram(Histogram *h)
    {
        histograms.push_back(h);
    }

    /** Merge another group's registrations under this one. */
    void
    adopt(StatGroup &child)
    {
        for (auto *c : child.counters)
            counters.push_back(c);
        for (auto *h : child.histograms)
            histograms.push_back(h);
    }

    /** Reset every registered stat (end of warm-up). */
    void
    resetAll()
    {
        for (auto *c : counters)
            c->reset();
        for (auto *h : histograms)
            h->reset();
    }

    /** Value of the counter registered as @p name; fatal if absent. */
    std::uint64_t valueOf(const std::string &name) const;

    /** True if a counter named @p name is registered. */
    bool has(const std::string &name) const;

    /** Sum of all counters whose name contains @p substring. */
    std::uint64_t sumMatching(const std::string &substring) const;

    /** Dump "name value # desc" lines, gem5 stats.txt style. */
    void dump(std::ostream &os) const;

    /** Histogram registered as @p name; nullptr when absent. */
    const Histogram *histogramOf(const std::string &name) const;

    const std::string &name() const { return groupName; }
    const std::vector<Counter *> &allCounters() const { return counters; }
    const std::vector<Histogram *> &allHistograms() const
    {
        return histograms;
    }

  private:
    std::string groupName;
    std::vector<Counter *> counters;
    std::vector<Histogram *> histograms;
};

} // namespace c3d

#endif // C3DSIM_COMMON_STATS_HH
