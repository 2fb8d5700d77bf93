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

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
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
 * A plain integer: every counter has exactly one writer at a time.
 * Under the parallel per-socket kernel a socket's (or core's) stats
 * are written only by events on that socket's queue, and the cell
 * barrier orders one cell's writes before the next cell and before
 * any read between cells. A stat that events on several sockets'
 * queues would bump keeps one instance per socket, all registered
 * under one name; StatGroup reads same-named instances as one summed
 * stat (docs/perf.md, "The concurrency contract").
 */
class Counter
{
  public:
    /** Register this counter under @p name in @p group. */
    void init(StatGroup *group, std::string name, std::string desc = "");

    Counter &
    operator++()
    {
        ++count;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        count += n;
        return *this;
    }

    std::uint64_t value() const { return count; }
    void reset() { count = 0; }
    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

  private:
    std::string statName;
    std::string statDesc;
    std::uint64_t count = 0;
};

/**
 * A histogram with fixed power-of-two bucketing of sample values.
 * Plain integers under the same single-writer rule as Counter.
 */
class Histogram
{
  public:
    void init(StatGroup *group, std::string name, std::string desc = "");

    void
    sample(std::uint64_t value)
    {
        ++samples;
        total += value;
        minValue = std::min(minValue, value);
        maxValue = std::max(maxValue, value);
        ++buckets[bucketOf(value)];
    }

    /** Fold @p other's samples into this histogram. */
    void
    merge(const Histogram &other)
    {
        samples += other.samples;
        total += other.total;
        minValue = std::min(minValue, other.minValue);
        maxValue = std::max(maxValue, other.maxValue);
        for (std::size_t b = 0; b < buckets.size(); ++b)
            buckets[b] += other.buckets[b];
    }

    std::uint64_t count() const { return samples; }
    std::uint64_t sum() const { return total; }
    std::uint64_t min() const { return samples ? minValue : 0; }
    std::uint64_t max() const { return maxValue; }

    double
    mean() const
    {
        return samples ? static_cast<double>(total) / samples : 0.0;
    }

    /** Count of samples in power-of-two bucket @p idx. */
    std::uint64_t bucket(unsigned idx) const { return buckets.at(idx); }

    void
    reset()
    {
        samples = 0;
        total = 0;
        minValue = ~std::uint64_t(0);
        maxValue = 0;
        buckets.fill(0);
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
    std::uint64_t samples = 0;
    std::uint64_t total = 0;
    // Sentinel until the first sample; min() masks it.
    std::uint64_t minValue = ~std::uint64_t(0);
    std::uint64_t maxValue = 0;
    std::array<std::uint64_t, 64> buckets{};
};

/**
 * A registry of counters and histograms with a hierarchical name.
 *
 * The group does not own the stats; objects embed their stats and
 * register them at init time (so stats live exactly as long as the
 * simulated object that produces them). Several stats registered
 * under one name (a per-socket stat's instances) read as one stat:
 * valueOf(), sumMatching(), histogramOf() and dump() see their sum.
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

    /**
     * Summed value of the counters registered as @p name; fatal if
     * there are none.
     */
    std::uint64_t valueOf(const std::string &name) const;

    /** True if a counter named @p name is registered. */
    bool has(const std::string &name) const;

    /** Sum of all counters whose name contains @p substring. */
    std::uint64_t sumMatching(const std::string &substring) const;

    /**
     * Dump "name value # desc" lines, gem5 stats.txt style: one line
     * per name, in first-registration order.
     */
    void dump(std::ostream &os) const;

    /**
     * The histograms registered as @p name, merged into one; empty
     * when there are none.
     */
    std::optional<Histogram> histogramOf(const std::string &name) const;

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
