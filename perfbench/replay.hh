/**
 * @file
 * Isolated per-layer replays for the simulator benchmark.
 *
 * A replay times one layer's public functions from outside the
 * simulation, on the workload's own generated access stream:
 *
 *  - workload:  VcpuWorkload::next() for every vCPU, round-robin,
 *               requesters from VcpuMapping::coreOf();
 *  - core:      SnoopTargetPolicy::targets() (first attempt) for
 *               every generated access;
 *  - mem:       Cache find/touch/victimFor/remove/install on one
 *               fresh L2 per core;
 *  - noc:       Network::send on a fresh Mesh for every
 *               requester -> target pair, closed loop per vCPU
 *               (next issue = last arrival + think gap);
 *  - sim:       EventQueue::scheduleFn + runUntil/run, one closure
 *               per replayed arrival;
 *  - virt:      Hypervisor::runContentScan on a freshly built
 *               system that skipped its build-time scan.
 *
 * Each layer is timed as one batch with thread CPU time, so the
 * figures are isolated costs (no cache interference from the other
 * layers), not spans of the real run.  The counts are exact and
 * repeat bit-for-bit for a given configuration.
 */

#ifndef VSNOOP_PERFBENCH_REPLAY_HH_
#define VSNOOP_PERFBENCH_REPLAY_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "system/sim_system.hh"

namespace perfbench
{

/** Thread CPU time in seconds (CLOCK_THREAD_CPUTIME_ID). */
double threadCpuSeconds();

/** Exact work done by one replay; identical across repetitions. */
struct ReplayCounts
{
    /** Generated accesses (all vCPUs, warmup included). */
    std::uint64_t accesses = 0;
    /** Sum of first-attempt snoop-target counts. */
    std::uint64_t targetSum = 0;
    /** L2 lookups that hit in the replayed caches. */
    std::uint64_t cacheHits = 0;
    /** Mesh sends, and the hops and queue-wait ticks they reported. */
    std::uint64_t sends = 0;
    std::uint64_t hops = 0;
    std::uint64_t waitTicks = 0;
    /** Closures the replayed event queue dispatched. */
    std::uint64_t events = 0;
    /** Guest pages the replayed content scan mapped RO-shared. */
    std::uint64_t pagesMerged = 0;

    bool operator==(const ReplayCounts &) const = default;
};

/** Thread-CPU seconds spent in each replayed layer. */
struct ReplayTimes
{
    double next = 0.0;
    double targets = 0.0;
    double cache = 0.0;
    double send = 0.0;
    double event = 0.0;
    double scan = 0.0;
};

struct ReplayResult
{
    ReplayCounts counts;
    ReplayTimes times;
    /** Reconciliation failures (empty when every check held). */
    std::vector<std::string> problems;
};

/**
 * Replay every layer once on a freshly built system of @p config.
 * Checks that each vCPU generated exactly its quota (warmup
 * included), that the mesh replay sent exactly the summed target
 * counts, and that the event queue dispatched every send once.
 */
ReplayResult replayLayers(const vsnoop::SystemConfig &config,
                          const vsnoop::AppProfile &app);

} // namespace perfbench

#endif // VSNOOP_PERFBENCH_REPLAY_HH_
