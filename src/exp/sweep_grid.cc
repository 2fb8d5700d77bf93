#include "exp/sweep_grid.hh"

#include <cinttypes>
#include <cstdio>
#include <type_traits>

#include "common/hash.hh"
#include "exp/result_table.hh"

namespace c3d::exp
{

std::string
specIdentityKey(const RunSpec &spec)
{
    return identityKeyOf(spec.profile.name, spec.variantName,
                         designName(spec.cfg.design),
                         mappingPolicyName(spec.cfg.mapping),
                         spec.cfg.numSockets,
                         spec.cfg.coresPerSocket, spec.scale,
                         spec.dramCacheMb, spec.warmupOps,
                         spec.measureOps, spec.profile.seed);
}

std::string
gridFingerprint(const std::vector<RunSpec> &specs)
{
    std::uint64_t h = Fnv1aOffset;
    const auto mix = [&h](const char c) {
        h = fnv1aByte(h, static_cast<unsigned char>(c));
    };
    for (const RunSpec &spec : specs) {
        for (const char c : specIdentityKey(spec))
            mix(c);
        // Trace workloads: fold the file's content hash in, so a
        // journal written against one trace refuses to resume/merge
        // against different contents -- even at the same path. The
        // path itself is deliberately absent (the same trace mounted
        // elsewhere on another shard worker is the same grid).
        if (spec.profile.isTrace()) {
            char tb[32];
            std::snprintf(tb, sizeof(tb), "|trace:%016" PRIx64,
                          spec.profile.traceHash);
            for (const char *p = tb; *p; ++p)
                mix(*p);
        }
        mix('\n');
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::string
configKey(const RunSpec &spec)
{
    std::string key;
    const auto field = [&key](const char *name, const auto value) {
        key += name;
        key += '=';
        if constexpr (std::is_floating_point_v<decltype(value)>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%a", value);
            key += buf;
        } else {
            key += std::to_string(value);
        }
        key += ';';
    };
    const SystemConfig &c = spec.cfg;
    key += "workload=" + spec.profile.name + ';';
    field("seed", spec.profile.seed);
    field("trace", spec.profile.traceHash);
    field("scale", spec.scale);
    field("warmup", spec.warmupOps);
    field("measure", spec.measureOps);
    key += std::string("design=") + designName(c.design) + ';';
    key += std::string("mapping=") + mappingPolicyName(c.mapping) + ';';
    field("sockets", c.numSockets);
    field("cores", c.coresPerSocket);
    field("l1Bytes", c.l1Bytes);
    field("l1Ways", c.l1Ways);
    field("l1Latency", c.l1Latency);
    field("llcBytes", c.llcBytes);
    field("llcWays", c.llcWays);
    field("llcTagLatency", c.llcTagLatency);
    field("llcDataLatency", c.llcDataLatency);
    if (c.designUsesDramCache()) {
        field("hasDramCache", c.hasDramCache);
        field("dramCacheBytes", c.dramCacheBytes);
        field("dramCacheLatency", c.dramCacheLatency);
        field("dramCacheChannels", c.dramCacheChannels);
        field("dramCacheChannelGBps", c.dramCacheChannelGBps);
        field("missPredictorEnabled", c.missPredictorEnabled);
        field("missPredictorExact", c.missPredictorExact);
        field("missPredictorEntries", c.missPredictorEntries);
        field("missPredictorLatency", c.missPredictorLatency);
        field("missPredictorRegionBytes", c.missPredictorRegionBytes);
    }
    field("memLatency", c.memLatency);
    field("memChannels", c.memChannels);
    field("memChannelGBps", c.memChannelGBps);
    field("infiniteMemBandwidth", c.infiniteMemBandwidth);
    field("globalDirLatency", c.globalDirLatency);
    field("localDirLatency", c.localDirLatency);
    field("sparseDirFactor", c.sparseDirFactor);
    field("sparseDirWays", c.sparseDirWays);
    field("hopLatency", c.hopLatency);
    field("linkGBps", c.linkGBps);
    field("controlPacketBytes", c.controlPacketBytes);
    field("dataPacketBytes", c.dataPacketBytes);
    field("infiniteLinkBandwidth", c.infiniteLinkBandwidth);
    field("zeroHopLatency", c.zeroHopLatency);
    field("storeQueueEntries", c.storeQueueEntries);
    field("tlbPageClassification", c.tlbPageClassification);
    field("tlbTrapPenalty", c.tlbTrapPenalty);
    return key;
}

std::uint64_t
autoWarmupOps(const WorkloadProfile &unscaled, std::uint64_t base)
{
    return unscaled.fracStream > 0.5 ? 45000 : base;
}

std::uint32_t
paperCoresPerSocket(std::uint32_t sockets)
{
    return sockets == 2 ? 16 : 8;
}

SweepGrid
quickPreset(SweepGrid grid)
{
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 500;
    grid.measureOps = 2000;
    return grid;
}

std::size_t
SweepGrid::size() const
{
    const std::size_t variant_count =
        variants.empty() ? 1 : variants.size();
    return workloads.size() * variant_count * designs.size() *
        sockets.size() * dramCacheMb.size() * mappings.size();
}

std::vector<RunSpec>
SweepGrid::expand() const
{
    static const std::vector<ConfigVariant> identity{{"", nullptr}};
    const std::vector<ConfigVariant> &vars =
        variants.empty() ? identity : variants;

    std::vector<RunSpec> specs;
    specs.reserve(size());

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        WorkloadProfile profile = workloads[w];
        if (seed)
            profile.seed = seed;
        for (std::size_t v = 0; v < vars.size(); ++v) {
            for (std::size_t d = 0; d < designs.size(); ++d) {
                for (std::size_t s = 0; s < sockets.size(); ++s) {
                    for (std::size_t m = 0; m < dramCacheMb.size();
                         ++m) {
                        for (std::size_t p = 0; p < mappings.size();
                             ++p) {
                            RunSpec spec;
                            spec.index = specs.size();
                            spec.workloadIdx = w;
                            spec.variantIdx = v;
                            spec.designIdx = d;
                            spec.socketIdx = s;
                            spec.dramIdx = m;
                            spec.mappingIdx = p;
                            spec.profile = profile;
                            spec.variantName = vars[v].name;
                            spec.scale = scale;
                            spec.dramCacheMb = dramCacheMb[m];
                            spec.measureOps = measureOps;
                            spec.warmupOps = warmupOps
                                ? warmupOps : autoWarmupOps(profile);

                            SystemConfig raw;
                            raw.numSockets = sockets[s];
                            raw.coresPerSocket = coresPerSocket
                                ? coresPerSocket
                                : paperCoresPerSocket(sockets[s]);
                            raw.design = designs[d];
                            raw.mapping = mappings[p];
                            if (dramCacheMb[m])
                                raw.dramCacheBytes =
                                    dramCacheMb[m] << 20;
                            if (vars[v].patch)
                                vars[v].patch(raw);
                            spec.cfg = raw.scaled(scale);
                            specs.push_back(std::move(spec));
                        }
                    }
                }
            }
        }
    }
    return specs;
}

} // namespace c3d::exp
