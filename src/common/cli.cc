#include "common/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace c3d
{

namespace
{

/** Help layout: labels in a 25-column gutter, text up to column 72. */
constexpr std::size_t HelpGutter = 25;
constexpr std::size_t HelpWidth = 72;

/** Greedy word wrap of @p text into lines of @p width columns. */
std::vector<std::string>
wrapWords(const std::string &text, std::size_t width)
{
    std::vector<std::string> lines;
    std::istringstream words(text);
    std::string word, line;
    while (words >> word) {
        if (!line.empty() && line.size() + 1 + word.size() > width) {
            lines.push_back(line);
            line.clear();
        }
        line += (line.empty() ? "" : " ") + word;
    }
    if (!line.empty())
        lines.push_back(line);
    return lines;
}

/** One help line: @p label in the gutter, @p text wrapped beside it
 *  (a label too wide for the gutter gets a line of its own). */
void
appendHelpEntry(std::string &out, const std::string &label,
                const std::string &text)
{
    std::string lead = "  " + label;
    if (lead.size() + 2 > HelpGutter) {
        out += lead + "\n";
        lead.clear();
    }
    for (const std::string &line : wrapWords(text, HelpWidth - HelpGutter)) {
        lead.resize(HelpGutter, ' ');
        out += lead + line + "\n";
        lead.clear();
    }
}

} // namespace

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    // strtoull alone would skip leading whitespace, accept a sign
    // (negating modulo 2^64) and clamp overflow to 2^64-1.
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno == ERANGE || *end != '\0')
        return false;
    out = v;
    return true;
}

FlagTable::Setter
FlagTable::bounded(const char *name, std::uint64_t lo, std::uint64_t hi,
                   std::function<void(std::uint64_t)> store)
{
    std::string range;
    if (hi != std::numeric_limits<std::uint64_t>::max())
        range = " (want " + std::to_string(lo) + ".." +
            std::to_string(hi) + ")";
    else if (lo != 0)
        range = " (want >= " + std::to_string(lo) + ")";
    const std::string flag = std::string("--") + name;
    return [=](const std::string &value, std::string &error) {
        std::uint64_t n = 0;
        if (!parseU64(value, n) || n < lo || n > hi) {
            error = "bad " + flag + " '" + value + "'" + range;
            return false;
        }
        store(n);
        return true;
    };
}

FlagTable &
FlagTable::custom(const char *name, const char *arg, const char *help,
                  Setter set)
{
    entries.push_back(
        Entry{std::move(nextHeading), name, arg, help, std::move(set)});
    nextHeading.clear();
    return *this;
}

FlagTable &
FlagTable::positional(const char *arg, const char *help,
                      std::vector<std::string> &target, std::size_t max)
{
    positionals = &target;
    maxPositionals = max;
    return custom("", arg, help, nullptr);
}

bool
FlagTable::reject(std::string &error, const char *what,
                  const std::string &value)
{
    error = std::string(what) + " '" + value + "'";
    return false;
}

bool
FlagTable::parse(const std::vector<std::string> &args)
{
    for (const std::string &arg : args) {
        if (arg.rfind("--", 0) != 0) {
            if (!positionals || positionals->size() >= maxPositionals) {
                parseError = "unexpected argument '" + arg + "'";
                return false;
            }
            positionals->push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        // eq >= 2 when present; npos - 2 still reads to the end.
        const std::string key = arg.substr(2, eq - 2);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "help") {
            helpSeen = true;
            continue;
        }
        const auto entry =
            std::find_if(entries.begin(), entries.end(),
                         [&key](const Entry &e) {
                             return !key.empty() && e.name == key;
                         });
        if (entry == entries.end()) {
            parseError = "unknown flag '--" + key + "'";
            return false;
        }
        entry->seen = true;
        std::string error;
        if (!entry->set(value, error)) {
            parseError = !error.empty()
                ? error
                : "bad --" + key + " '" + value + "'";
            return false;
        }
    }
    return true;
}

bool
FlagTable::given(const std::string &name) const
{
    return std::any_of(entries.begin(), entries.end(),
                       [&name](const Entry &e) {
                           return e.seen && e.name == name;
                       });
}

std::optional<int>
FlagTable::parseArgs(int argc, char **argv, const char *tool, int first)
{
    const bool parsed = parse(std::vector<std::string>(
        argv + std::min(first, argc), argv + argc));
    if (helpSeen) {
        std::fputs(help().c_str(), stdout);
        return 0;
    }
    if (!parsed)
        return usageError(tool, parseError);
    return std::nullopt;
}

int
FlagTable::usageError(const char *tool, const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n%s", tool, message.c_str(),
                 help().c_str());
    return 2;
}

std::string
FlagTable::help() const
{
    std::string out;
    for (const std::string &line : wrapWords(title, HelpWidth))
        out += line + "\n";
    for (const Entry &e : entries) {
        if (!e.heading.empty())
            out += "\n" + e.heading + ":\n";
        if (e.name.empty())
            appendHelpEntry(out, e.arg, e.help);
        else if (e.arg.empty() || e.arg[0] == '[')
            appendHelpEntry(out, "--" + e.name + e.arg, e.help);
        else
            appendHelpEntry(out, "--" + e.name + "=" + e.arg, e.help);
    }
    appendHelpEntry(out, "--help", "print this help and exit");
    return out;
}

bool
parseDesign(const std::string &s, Design &out)
{
    for (Design d : {Design::Baseline, Design::Snoopy, Design::FullDir,
                     Design::C3D, Design::C3DFullDir}) {
        if (s == designName(d)) {
            out = d;
            return true;
        }
    }
    return false;
}

bool
parseMapping(const std::string &s, MappingPolicy &out)
{
    for (MappingPolicy p : {MappingPolicy::Interleave,
                            MappingPolicy::FirstTouch1,
                            MappingPolicy::FirstTouch2}) {
        if (s == mappingPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    if (s.empty())
        return out;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
}

namespace
{

/** parseCli's values before scaling and latency conversion. */
struct RawCli
{
    SystemConfig raw;
    std::uint64_t dramNs = 0, hopNs = 0, memNs = 0;
    bool noDramCache = false;
};

FlagTable
cliTable(CliOptions &opt, RawCli &r)
{
    FlagTable t("c3dsim options:");
    t.mapped("design", "NAME",
             "baseline|snoopy|full-dir|c3d|c3d-full-dir (default c3d)",
             r.raw.design, parseDesign, "unknown design")
        .number("sockets", "2 or 4 (default 4)", r.raw.numSockets, 1, 8)
        .number("cores-per-socket", "(default 8)", r.raw.coresPerSocket,
                1, 64)
        .number("scale", "shrink capacities & workload by N (default 32)",
                opt.scale, 1)
        .mapped("mapping", "P", "INT|FT1|FT2 (default FT2)",
                r.raw.mapping, parseMapping, "unknown mapping")
        .text("workload", "NAME", "paper profile name (default facesim)",
              opt.workload)
        .number("warmup", "references per core before the window",
                opt.warmupOps)
        .number("measure", "references per core measured",
                opt.measureOps)
        .number("dram-cache-ns", "DRAM-cache latency override",
                r.dramNs)
        .number("hop-ns", "inter-socket hop latency override", r.hopNs)
        .number("mem-ns", "memory latency override", r.memNs)
        .flag("no-dram-cache", "drop the DRAM cache (any design)",
              r.noDramCache)
        .flag("tlb-classification", "enable the SIV-D broadcast filter",
              r.raw.tlbPageClassification)
        .number("seed", "workload RNG seed", opt.seed);
    return t;
}

} // namespace

std::string
cliUsage()
{
    CliOptions opt;
    RawCli raw;
    return cliTable(opt, raw).help();
}

CliOptions
parseCli(const std::vector<std::string> &args)
{
    CliOptions opt;
    RawCli r; // unscaled; scaled at the end
    FlagTable table = cliTable(opt, r);
    if (!table.parse(args))
        opt.error = table.error();
    opt.showHelp = table.helpRequested();
    if (!opt.error.empty())
        return opt;

    if (r.noDramCache)
        r.raw.hasDramCache = false;
    if (r.dramNs)
        r.raw.dramCacheLatency = nsToTicks(r.dramNs);
    if (r.hopNs)
        r.raw.hopLatency = nsToTicks(r.hopNs);
    if (r.memNs)
        r.raw.memLatency = nsToTicks(r.memNs);

    opt.config = r.raw.scaled(opt.scale);
    return opt;
}

CliOptions
parseCli(int argc, char **argv)
{
    return parseCli(std::vector<std::string>(argv + std::min(1, argc),
                                             argv + argc));
}

} // namespace c3d
