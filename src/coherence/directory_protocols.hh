/**
 * @file
 * Directory-based inter-socket protocols.
 *
 * DirectoryProtocol is the common MSI transaction engine used by four
 * of the five evaluated designs; the designs differ only in the
 * policy hooks (directory storage, whether reads allocate entries,
 * what happens to untracked writes, and writeback handling):
 *
 *  - baseline      sparse directory over LLCs, no DRAM cache (§V-A)
 *  - full-dir      idealized inclusive directory, dirty DRAM$ (§III-B)
 *  - c3d           sparse non-inclusive directory, clean DRAM$, write
 *                  broadcasts for untracked blocks (§IV)
 *  - c3d-full-dir  clean DRAM$ with an idealized full directory (no
 *                  broadcasts; M -> S on writeback) (§V-A)
 *
 * The snoopy design has no directory and lives in snoopy_protocol.hh.
 */

#ifndef C3DSIM_COHERENCE_DIRECTORY_PROTOCOLS_HH
#define C3DSIM_COHERENCE_DIRECTORY_PROTOCOLS_HH

#include <memory>

#include "coherence/protocol_base.hh"

namespace c3d
{

/** Per-design policy knobs for the directory transaction engine. */
struct DirPolicy
{
    /** Reads to untracked blocks allocate a directory entry. */
    bool allocateOnRead = true;
    /** Writes to untracked (Invalid) blocks must broadcast
     * invalidations to all remote DRAM caches. */
    bool broadcastOnUntrackedWrite = false;
    /** The §IV-D private-page hint may elide those broadcasts. */
    bool privatePagesElideBroadcast = false;
    /** PutX of a clean-design write-through leaves the evicting
     * socket tracked as a sharer (c3d-full-dir keeps M -> S). */
    bool putXKeepsSharer = false;
    /** Clean DRAM-cache evictions notify the home directory (only
     * meaningful for inclusive/full directories). */
    bool trackDramCacheEvictions = false;
};

/** Common MSI directory engine. */
class DirectoryProtocol : public ProtocolBase
{
  public:
    DirectoryProtocol(Machine &machine, StatGroup *stats,
                      const char *design_name, DirPolicy policy,
                      bool sparse_storage);

    void getS(SocketId req, Addr addr, MissSlot slot) override;
    void getX(SocketId req, Addr addr, bool has_shared_copy,
              bool private_page, MissSlot slot) override;
    void putX(SocketId req, Addr addr) override;
    void dramCacheEvicted(SocketId req, Addr addr, bool dirty) override;

    const char *name() const override { return designName; }

    /** Directory slice for @p home (tests/inspection). */
    DirectoryStore &directory(SocketId home) { return *dirs[home]; }

  private:
    /** Runs at the home once the block lock is held. */
    void handleGetS(SocketId req, SocketId home, Addr addr,
                    MissSlot slot);
    void handleGetX(SocketId req, SocketId home, Addr addr,
                    bool upgrade, bool private_page, MissSlot slot);

    /** Read memory at home and deliver data to the requester. */
    void serveFromMemory(SocketId req, SocketId home, Addr addr,
                         MissSlot slot);

    /** Send the write response (data or upgrade-ack) to @p req. */
    void respondWrite(SocketId req, SocketId home, Addr addr,
                      bool with_data, MissSlot slot);

    /**
     * Resolve a directory recall: invalidate the victim entry's
     * holders and write dirty data back to memory. Runs under the
     * victim block's lock, off the requester's critical path; if a
     * new transaction re-established an entry for the block by the
     * time the lock is held, the recall is moot.
     */
    void resolveRecall(SocketId home, const DirRecall &recall);

    /**
     * Join for the parallel memory-read + broadcast write path. It
     * lives in the home's pool; only home-queue events touch it.
     */
    struct WriteJoin
    {
        Addr addr = 0;
        SocketId req = InvalidSocket;
        MissSlot slot = 0;
        bool withData = false;
        bool memPending = false;
        bool acksPending = false;
    };

    /** Send the joined write's response once both halves are in. */
    void tryFinish(SocketId home, WriteJoin *join);

    const char *designName;
    const DirPolicy policy;
    std::vector<std::unique_ptr<DirectoryStore>> dirs;
    std::vector<Pool<WriteJoin>> writeJoins;

    /** Per-socket stats, as ProtocolBase::ProtoStats. */
    struct alignas(64) DirStats
    {
        Counter readsFromMemory;
        Counter readsFromOwner;
        Counter writesServedByOwner;
    };
    /** dirStats[s]: updated only by events on socket s's queue. */
    std::vector<DirStats> dirStats;
};

/** Factory helpers for the four directory-based designs. */
std::unique_ptr<GlobalProtocol>
makeBaselineProtocol(Machine &m, StatGroup *stats);
std::unique_ptr<GlobalProtocol>
makeFullDirProtocol(Machine &m, StatGroup *stats);
std::unique_ptr<GlobalProtocol>
makeC3DProtocol(Machine &m, StatGroup *stats);
std::unique_ptr<GlobalProtocol>
makeC3DFullDirProtocol(Machine &m, StatGroup *stats);

} // namespace c3d

#endif // C3DSIM_COHERENCE_DIRECTORY_PROTOCOLS_HH
