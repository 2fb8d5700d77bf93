#include "common/stats.hh"

#include <iomanip>
#include <unordered_map>

namespace c3d
{

void
Counter::init(StatGroup *group, std::string name, std::string desc)
{
    statName = std::move(name);
    statDesc = std::move(desc);
    if (group)
        group->addCounter(this);
}

void
Histogram::init(StatGroup *group, std::string name, std::string desc)
{
    statName = std::move(name);
    statDesc = std::move(desc);
    if (group)
        group->addHistogram(this);
}

std::uint64_t
StatGroup::valueOf(const std::string &name) const
{
    bool found = false;
    std::uint64_t sum = 0;
    for (const auto *c : counters) {
        if (c->name() == name) {
            found = true;
            sum += c->value();
        }
    }
    if (!found) {
        c3d_fatal("no counter named '%s' in stat group '%s'",
                  name.c_str(), groupName.c_str());
    }
    return sum;
}

bool
StatGroup::has(const std::string &name) const
{
    for (const auto *c : counters) {
        if (c->name() == name)
            return true;
    }
    return false;
}

std::uint64_t
StatGroup::sumMatching(const std::string &substring) const
{
    std::uint64_t sum = 0;
    for (const auto *c : counters) {
        if (c->name().find(substring) != std::string::npos)
            sum += c->value();
    }
    return sum;
}

std::optional<Histogram>
StatGroup::histogramOf(const std::string &name) const
{
    std::optional<Histogram> merged;
    for (const auto *h : histograms) {
        if (h->name() != name)
            continue;
        if (merged)
            merged->merge(*h);
        else
            merged = *h;
    }
    return merged;
}

void
StatGroup::dump(std::ostream &os) const
{
    // A name's instances print once, summed, where the first one
    // was registered.
    std::vector<const Counter *> firsts;
    std::unordered_map<std::string, std::uint64_t> sums;
    for (const auto *c : counters) {
        auto [it, fresh] = sums.try_emplace(c->name(), 0);
        if (fresh)
            firsts.push_back(c);
        it->second += c->value();
    }
    for (const auto *c : firsts) {
        os << std::left << std::setw(48) << c->name() << " "
           << std::right << std::setw(16) << sums[c->name()];
        if (!c->desc().empty())
            os << "  # " << c->desc();
        os << "\n";
    }
}

} // namespace c3d
