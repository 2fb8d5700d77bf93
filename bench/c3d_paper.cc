/**
 * @file
 * c3d-paper: reproduce the paper's evaluation (Table I, Figs. 2-3
 * and 6-11, §VI-C, the ablations and the §III-B directory cost).
 *
 * Usage:  c3d-paper [--jobs=N] [--quick] [--json] [FIGURE...]
 *
 * Figures run in the order given; none means all of them, in paper
 * order. A machine that several figures share is simulated once, so
 * the whole paper in one process is cheaper than its figures run
 * one by one, and prints the same bytes as their concatenation.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "paper.hh"

int
main(int argc, char **argv)
{
    using namespace c3d;

    std::string names_help = "figures to run (default: all):";
    for (const paper::Figure &f : paper::figures())
        names_help += std::string(" ") + f.name;

    unsigned jobs = 1;
    bool quick = false;
    bool json = false;
    std::vector<std::string> names;
    FlagTable flags("c3d-paper: the paper's tables and figures");
    flags.number("jobs", "worker threads (default 1)", jobs, 0, 256)
        .flag("quick", "shrink every grid to a seconds-scale smoke run",
              quick)
        .flag("json", "emit the raw result table of one figure as JSON "
              "instead of the paper table (the smoke tests parse it)",
              json)
        .positional("FIGURE", names_help.c_str(), names);
    if (const auto rc = flags.parseArgs(argc, argv, "c3d-paper"))
        return *rc;

    std::vector<const paper::Figure *> selected;
    for (const std::string &name : names) {
        const paper::Figure *f = paper::findFigure(name);
        if (!f)
            return flags.usageError("c3d-paper",
                                    "unknown figure '" + name + "'");
        selected.push_back(f);
    }
    if (selected.empty()) {
        for (const paper::Figure &f : paper::figures())
            selected.push_back(&f);
    }
    if (json && selected.size() != 1)
        return flags.usageError("c3d-paper",
                                "--json takes exactly one figure");

    paper::Paper run(jobs, quick, json);
    for (const paper::Figure *f : selected)
        run.runFigure(*f);
    std::fprintf(stderr, "c3d-paper: simulated %zu of %zu timing rows\n",
                 run.simulations(), run.timingRows());
    return 0;
}
