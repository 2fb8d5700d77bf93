#include "common/stats.hh"

#include <iomanip>

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
    for (const auto *c : counters) {
        if (c->name() == name)
            return c->value();
    }
    c3d_fatal("no counter named '%s' in stat group '%s'", name.c_str(),
              groupName.c_str());
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

const Histogram *
StatGroup::histogramOf(const std::string &name) const
{
    for (const auto *h : histograms) {
        if (h->name() == name)
            return h;
    }
    return nullptr;
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto *c : counters) {
        os << std::left << std::setw(48) << c->name() << " "
           << std::right << std::setw(16) << c->value();
        if (!c->desc().empty())
            os << "  # " << c->desc();
        os << "\n";
    }
}

} // namespace c3d
