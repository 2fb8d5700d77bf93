#include "common/cli.hh"

#include <cstdlib>

namespace c3d
{

/** Split "--key=value"; value empty for bare flags. */
bool
splitFlag(const std::string &arg, std::string &key, std::string &value)
{
    if (arg.rfind("--", 0) != 0)
        return false;
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
        key = arg.substr(2);
        value.clear();
    } else {
        key = arg.substr(2, eq - 2);
        value = arg.substr(eq + 1);
    }
    return true;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 0);
    return end && *end == '\0';
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

bool
parseProtocol(const std::string &s, Protocol &out)
{
    for (Protocol p : {Protocol::Mesi, Protocol::Mesif, Protocol::Moesi,
                       Protocol::Dragon}) {
        if (s == protocolName(p)) {
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

std::string
cliUsage()
{
    return
        "c3dsim options:\n"
        "  --design=NAME          baseline|snoopy|full-dir|c3d|"
        "c3d-full-dir (default c3d)\n"
        "  --sockets=N            2 or 4 (default 4)\n"
        "  --cores-per-socket=N   (default 8)\n"
        "  --scale=N              shrink capacities & workload by N "
        "(default 32)\n"
        "  --mapping=P            INT|FT1|FT2 (default FT2)\n"
        "  --protocol=NAME        mesi|mesif|moesi|dragon snoopy "
        "variant (default mesi)\n"
        "  --store-buffer=N       snoopy store write buffer depth "
        "(default 0 = off)\n"
        "  --workload=NAME        paper profile name (default "
        "facesim)\n"
        "  --warmup=N --measure=N references per core\n"
        "  --dram-cache-ns=N --hop-ns=N --mem-ns=N latency overrides\n"
        "  --no-dram-cache        drop the DRAM cache (any design)\n"
        "  --tlb-classification   enable the SIV-D broadcast filter\n"
        "  --seed=N               workload RNG seed\n"
        "  --help\n";
}

CliOptions
parseCli(const std::vector<std::string> &args)
{
    CliOptions opt;
    SystemConfig raw; // unscaled; scaled at the end

    std::uint64_t dram_ns = 0, hop_ns = 0, mem_ns = 0;

    for (const std::string &arg : args) {
        std::string key, value;
        if (!splitFlag(arg, key, value)) {
            opt.error = "unexpected argument '" + arg + "'";
            return opt;
        }
        std::uint64_t n = 0;
        if (key == "help") {
            opt.showHelp = true;
        } else if (key == "design") {
            if (!parseDesign(value, raw.design)) {
                opt.error = "unknown design '" + value + "'";
                return opt;
            }
        } else if (key == "mapping") {
            if (!parseMapping(value, raw.mapping)) {
                opt.error = "unknown mapping '" + value + "'";
                return opt;
            }
        } else if (key == "protocol") {
            if (!parseProtocol(value, raw.protocol)) {
                opt.error = "unknown protocol '" + value + "'";
                return opt;
            }
        } else if (key == "store-buffer") {
            if (!parseU64(value, n) || n > 4096) {
                opt.error = "bad store-buffer depth";
                return opt;
            }
            raw.storeWriteBufferDepth = static_cast<std::uint32_t>(n);
        } else if (key == "sockets") {
            if (!parseU64(value, n) || n < 1 || n > 8) {
                opt.error = "bad socket count";
                return opt;
            }
            raw.numSockets = static_cast<std::uint32_t>(n);
        } else if (key == "cores-per-socket") {
            if (!parseU64(value, n) || n < 1 || n > 64) {
                opt.error = "bad cores-per-socket";
                return opt;
            }
            raw.coresPerSocket = static_cast<std::uint32_t>(n);
        } else if (key == "scale") {
            if (!parseU64(value, n) || n < 1) {
                opt.error = "bad scale";
                return opt;
            }
            opt.scale = static_cast<std::uint32_t>(n);
        } else if (key == "workload") {
            opt.workload = value;
        } else if (key == "warmup") {
            if (!parseU64(value, opt.warmupOps)) {
                opt.error = "bad warmup";
                return opt;
            }
        } else if (key == "measure") {
            if (!parseU64(value, opt.measureOps)) {
                opt.error = "bad measure";
                return opt;
            }
        } else if (key == "dram-cache-ns") {
            if (!parseU64(value, dram_ns)) {
                opt.error = "bad dram-cache-ns";
                return opt;
            }
        } else if (key == "hop-ns") {
            if (!parseU64(value, hop_ns)) {
                opt.error = "bad hop-ns";
                return opt;
            }
        } else if (key == "mem-ns") {
            if (!parseU64(value, mem_ns)) {
                opt.error = "bad mem-ns";
                return opt;
            }
        } else if (key == "no-dram-cache") {
            raw.hasDramCache = false;
        } else if (key == "tlb-classification") {
            raw.tlbPageClassification = true;
        } else if (key == "seed") {
            if (!parseU64(value, opt.seed)) {
                opt.error = "bad seed";
                return opt;
            }
        } else {
            opt.error = "unknown flag '--" + key + "'";
            return opt;
        }
    }

    if (dram_ns)
        raw.dramCacheLatency = nsToTicks(dram_ns);
    if (hop_ns)
        raw.hopLatency = nsToTicks(hop_ns);
    if (mem_ns)
        raw.memLatency = nsToTicks(mem_ns);

    opt.config = raw.scaled(opt.scale);
    return opt;
}

CliOptions
parseCli(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i)
        args.emplace_back(argv[i]);
    return parseCli(args);
}

} // namespace c3d
