/**
 * @file
 * c3d-paper's timing memo: figures served from it print exactly what
 * a fresh sweep of their grids prints, and each distinct machine of
 * the paper is simulated once per process.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "paper.hh"

namespace c3d
{
namespace
{

/** Run the figure named @p name on @p p; return what it printed. */
std::string
printed(paper::Paper &p, const char *name)
{
    const paper::Figure *figure = paper::findFigure(name);
    EXPECT_NE(figure, nullptr) << name;
    if (!figure)
        return "";
    std::FILE *out = p.out();
    std::fflush(out);
    const long start = std::ftell(out);
    p.runFigure(*figure);
    std::fflush(out);
    std::string text(static_cast<std::size_t>(std::ftell(out) - start),
                     '\0');
    std::fseek(out, start, SEEK_SET);
    EXPECT_EQ(std::fread(text.data(), 1, text.size(), out), text.size());
    std::fseek(out, 0, SEEK_END);
    return text;
}

/** A scratch output file, closed on scope exit. */
struct Sink
{
    std::FILE *file = std::tmpfile();
    ~Sink() { std::fclose(file); }
};

TEST(PaperMemo, MemoizedFiguresEqualFreshSweeps)
{
    Sink sink;
    ASSERT_NE(sink.file, nullptr);
    paper::Paper p(2, /*quick=*/true, /*json=*/true, sink.file);
    const exp::SweepGrid all4 = p.quickened(paper::allDesignsGrid(4));
    const exp::SweepGrid lat = p.quickened(paper::dramLatencyGrid());
    const std::string fresh4 = exp::SweepEngine(2).run(all4).toJson();

    EXPECT_EQ(printed(p, "fig6"), fresh4);
    EXPECT_EQ(p.simulations(), all4.size());

    // Fig. 9 sweeps Fig. 6's grid: every row is a memo hit.
    EXPECT_EQ(printed(p, "fig9"), fresh4);
    EXPECT_EQ(p.simulations(), all4.size());

    // Fig. 10's 40 ns (default) rows are Fig. 6's machines, and a
    // baseline row reads no DRAM-cache latency, so only the 30/50 ns
    // rows of the DRAM-cache designs are new.
    EXPECT_EQ(printed(p, "fig10"), exp::SweepEngine(2).run(lat).toJson());
    const std::size_t fresh_rows =
        lat.workloads.size() * 2 * (lat.designs.size() - 1);
    EXPECT_EQ(p.simulations(), all4.size() + fresh_rows);
    EXPECT_EQ(p.timingRows(), 2 * all4.size() + lat.size());
}

TEST(PaperMemo, WholeQuickPaperSimulatesEachMachineOnce)
{
    Sink whole_sink;
    ASSERT_NE(whole_sink.file, nullptr);
    paper::Paper whole(2, /*quick=*/true, /*json=*/false,
                       whole_sink.file);
    std::string whole_text;
    for (const paper::Figure &f : paper::figures())
        whole_text += printed(whole, f.name);
    EXPECT_EQ(whole.timingRows(), 126u);
    EXPECT_EQ(whole.simulations(), 81u);

    // Each figure alone prints what it printed inside the whole run.
    std::string alone_text;
    for (const paper::Figure &f : paper::figures()) {
        Sink sink;
        ASSERT_NE(sink.file, nullptr);
        paper::Paper alone(2, /*quick=*/true, /*json=*/false, sink.file);
        alone_text += printed(alone, f.name);
    }
    EXPECT_EQ(whole_text, alone_text);
}

TEST(PaperMemo, FigureNamesAreUnique)
{
    for (const paper::Figure &f : paper::figures())
        EXPECT_EQ(paper::findFigure(f.name), &f) << f.name;
    EXPECT_EQ(paper::findFigure("fig4"), nullptr);
}

} // namespace
} // namespace c3d
