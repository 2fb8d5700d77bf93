/**
 * @file
 * Command-line parsing for every c3dsim tool.
 *
 * Each tool declares its flags once, in a FlagTable: a flag's name,
 * its help text, and where its value goes (with its range, for
 * numbers). The table parses argv and generates `--help`, so the
 * two cannot drift. Cross-flag rules (mutually exclusive flags,
 * presets, pairings) stay as plain code after the parse.
 */

#ifndef C3DSIM_COMMON_CLI_HH
#define C3DSIM_COMMON_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/config.hh"

namespace c3d
{

/**
 * Parse an unsigned integer: base auto-detected (0x.., 0.., decimal),
 * nothing but digits -- no sign, no whitespace -- and no value past
 * 2^64-1.
 */
bool parseU64(const std::string &s, std::uint64_t &out);

/** Split "a,b,c" on commas; empty input yields an empty list. */
std::vector<std::string> splitList(const std::string &s);

/**
 * One tool's command line. Register flags with flag() / number() /
 * mapped() / list() / text() / custom() / positional(), grouped under
 * section() headings, then parse. `--help` is always accepted.
 *
 * Parsing stops at the first bad argument. A switch ignores any
 * `=value`; every other setter sees the text after '=' (empty for a
 * bare `--name`).
 */
class FlagTable
{
  public:
    /** Stores a flag's value; false rejects it. A setter may fill
     *  @p error, otherwise the table reports "bad --name 'value'". */
    using Setter =
        std::function<bool(const std::string &value, std::string &error)>;

    /** @p title opens the generated help. */
    explicit FlagTable(std::string title) : title(std::move(title)) {}

    /** Start a help section; flags added next are listed under it. */
    FlagTable &
    section(std::string heading)
    {
        nextHeading = std::move(heading);
        return *this;
    }

    /** A switch: `--name` sets @p target. */
    FlagTable &
    flag(const char *name, const char *help, bool &target)
    {
        return custom(name, "", help,
                      [&target](const std::string &, std::string &) {
                          target = true;
                          return true;
                      });
    }

    /** An unsigned number in [@p lo, @p hi] (default: T's range). */
    template <typename T>
    FlagTable &
    number(const char *name, const char *help, T &target,
           std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<T>::max())
    {
        static_assert(std::is_unsigned<T>::value,
                      "number() stores unsigned values");
        return custom(name, "N", help,
                      bounded(name, lo, hi, [&target](std::uint64_t n) {
                          target = static_cast<T>(n);
                      }));
    }

    /** A value looked up by @p parse, bool(const std::string &, T &)
     *  (a name-to-enum map, say); a rejected value is reported as
     *  "<what> 'value'". */
    template <typename T, typename Parse>
    FlagTable &
    mapped(const char *name, const char *arg, const char *help,
           T &target, Parse parse, const char *what)
    {
        return custom(name, arg, help,
            [=, &target](const std::string &value, std::string &error) {
                return parse(value, target) || reject(error, what, value);
            });
    }

    /** Same, for a comma-separated list; each use replaces the
     *  list, and `--name=` empties it. */
    template <typename T, typename Parse>
    FlagTable &
    list(const char *name, const char *arg, const char *help,
         std::vector<T> &target, Parse parse, const char *what)
    {
        return custom(name, arg, help,
            [=, &target](const std::string &value, std::string &error) {
                target.clear();
                for (const std::string &item : splitList(value)) {
                    T v{};
                    if (!parse(item, v))
                        return reject(error, what, item);
                    target.push_back(v);
                }
                return true;
            });
    }

    /** Free text (may be empty); @p arg names it in the help. */
    FlagTable &
    text(const char *name, const char *arg, const char *help,
         std::string &target)
    {
        return mapped(name, arg, help, target,
                      [](const std::string &value, std::string &t) {
                          t = value;
                          return true;
                      }, "");
    }

    /** Anything else: @p set parses and stores. An empty @p arg
     *  lists the flag as a switch; "[=X]" as an optional value. */
    FlagTable &custom(const char *name, const char *arg,
                      const char *help, Setter set);

    /** Non-flag arguments, collected in order; more than @p max is
     *  an error. */
    FlagTable &positional(const char *arg, const char *help,
                          std::vector<std::string> &target,
                          std::size_t max = SIZE_MAX);

    /** Parse @p args; false on the first bad one (see error()). */
    bool parse(const std::vector<std::string> &args);

    /**
     * A tool's front door: parse argv[first..argc), then print
     * help() on --help (exit status 0) or report a bad argument via
     * usageError() (status 2). Empty when the tool should go on.
     */
    std::optional<int> parseArgs(int argc, char **argv, const char *tool,
                                 int first = 1);

    /** Print "<tool>: <message>" and help() to stderr; returns 2. */
    int usageError(const char *tool, const std::string &message) const;

    bool helpRequested() const { return helpSeen; }
    /** Whether `--name` appeared in the parsed arguments. */
    bool given(const std::string &name) const;
    const std::string &error() const { return parseError; }

    /** The generated `--help` text. */
    std::string help() const;

  private:
    struct Entry
    {
        std::string heading; //!< section opened by this entry
        std::string name;    //!< without "--"; empty for positionals
        std::string arg;     //!< value placeholder; empty for a switch
        std::string help;
        Setter set;
        bool seen = false; //!< appeared in the parsed arguments
    };

    /** number()'s setter: range check, then @p store. */
    static Setter bounded(const char *name, std::uint64_t lo,
                          std::uint64_t hi,
                          std::function<void(std::uint64_t)> store);
    static bool reject(std::string &error, const char *what,
                       const std::string &value);

    std::string title;
    std::string nextHeading;
    std::vector<Entry> entries;
    std::vector<std::string> *positionals = nullptr;
    std::size_t maxPositionals = 0;
    bool helpSeen = false;
    std::string parseError;
};

/** Parsed command line for a c3dsim example. */
struct CliOptions
{
    SystemConfig config;           //!< already scaled
    std::uint32_t scale = 32;      //!< machine/workload scale divisor
    std::string workload = "facesim";
    std::uint64_t warmupOps = 15000;
    std::uint64_t measureOps = 25000;
    std::uint64_t seed = 0xC3D0;
    bool showHelp = false;
    std::string error;             //!< non-empty on parse failure

    bool ok() const { return error.empty() && !showHelp; }
};

/**
 * Parse @p args (not including argv[0]). Unknown flags produce an
 * error; `--help` sets showHelp. The returned config has scaling
 * already applied.
 */
CliOptions parseCli(const std::vector<std::string> &args);

/** Convenience overload for main(argc, argv). */
CliOptions parseCli(int argc, char **argv);

/** Usage text for --help, generated from parseCli's table. */
std::string cliUsage();

/** Map a design name (designName() spelling) back to the enum. */
bool parseDesign(const std::string &s, Design &out);

/** Map a mapping-policy name back to the enum. */
bool parseMapping(const std::string &s, MappingPolicy &out);

} // namespace c3d

#endif // C3DSIM_COMMON_CLI_HH
