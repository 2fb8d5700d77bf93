#include "mem/memory_controller.hh"

namespace c3d
{

MemoryController::MemoryController(EventQueue &eq,
                                   const SystemConfig &cfg,
                                   SocketId socket, StatGroup *stats)
    : eventq(eq), accessLatency(cfg.memLatency)
{
    c3d_assert(cfg.memChannels >= 1, "memory needs a channel");

    const Bandwidth bw = cfg.infiniteMemBandwidth
        ? Bandwidth()
        : Bandwidth::fromGBps(cfg.memChannelGBps);

    const std::string prefix = "socket" + std::to_string(socket) +
        ".mem";
    channels.resize(cfg.memChannels);
    for (std::uint32_t i = 0; i < cfg.memChannels; ++i) {
        channels[i].init(bw, stats,
                         prefix + ".ch" + std::to_string(i));
    }

    readCount.init(stats, prefix + ".reads", "memory line reads");
    writeCount.init(stats, prefix + ".writes", "memory line writes");
    remoteReadCount.init(stats, prefix + ".remote_reads",
                         "reads issued by remote sockets");
    remoteWriteCount.init(stats, prefix + ".remote_writes",
                          "writes issued by remote sockets");
    readLatency.init(stats, prefix + ".read_latency",
                     "read service latency (ticks)");
}

Channel &
MemoryController::channelFor(Addr addr)
{
    // Interleave blocks across channels.
    return channels[blockNumber(addr) % channels.size()];
}

void
MemoryController::read(Addr addr, bool remote,
                       EventQueue::Callback &&done)
{
    ++readCount;
    if (remote)
        ++remoteReadCount;

    const Tick start = eventq.now();
    const Tick dataReady =
        channelFor(addr).acquire(start + accessLatency, BlockBytes);
    readLatency.sample(dataReady - start);
    eventq.scheduleAt(dataReady, std::move(done));
}

void
MemoryController::write(Addr addr, bool remote)
{
    ++writeCount;
    if (remote)
        ++remoteWriteCount;
    // Posted write: occupy the channel after the access latency.
    channelFor(addr).acquire(eventq.now() + accessLatency, BlockBytes);
}

} // namespace c3d
