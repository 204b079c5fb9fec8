/**
 * @file
 * Scheduler topology: how many dependence-management shards the system
 * instantiates, how cores are grouped into clusters in front of them, and
 * the port-level timings of the fabric in between.
 *
 * The default (1 shard, 1 cluster) reproduces the paper's single
 * centralized Picos exactly — the sharded code path is not even
 * constructed, so the paper-reproduction goldens stay bit-identical.
 */

#ifndef PICOSIM_PICOS_TOPOLOGY_HH
#define PICOSIM_PICOS_TOPOLOGY_HH

#include "sim/types.hh"

namespace picosim::picos
{

struct TopologyParams
{
    /** Dependence-management shards (address-interleaved DCT slices). */
    unsigned schedShards = 1;

    /** Core clusters, each with its own submission/ready fabric and
     *  Picos Manager instance. */
    unsigned clusters = 1;

    /** Steal ready tasks from another cluster when the local ready
     *  scheduler runs dry. */
    bool workStealing = true;

    /** One-way latency of the cluster fabric -> shard gateway link. */
    Cycle clusterLinkCycles = 2;

    /** Latency of a forwarded cross-shard retirement notification. */
    Cycle xshardNotifyCycles = 4;

    /** Extra gateway cycles per dependence whose address is owned by a
     *  remote shard (the cross-shard table round trip). */
    Cycle xshardDepCycles = 2;

    /** Extra ready-issue cycles charged for a stolen task (the remote
     *  ready-queue access). */
    Cycle stealPenaltyCycles = 10;

    /** Decoded-descriptor slots buffered at each shard's gateway. */
    unsigned gatewayQueueDepth = 4;

    /** True when the single centralized Picos path must be constructed. */
    bool
    singlePicos() const
    {
        return schedShards <= 1 && clusters <= 1;
    }
};

} // namespace picosim::picos

#endif // PICOSIM_PICOS_TOPOLOGY_HH
