/**
 * @file
 * Multi-configuration sweep execution.
 *
 * The evaluation workload of this repository — like the source
 * paper's Figures 6-10 (3 policies x 4 relocation modes x 4 RO
 * policies x ~10 apps) — is embarrassingly parallel: many
 * independent single-threaded SimSystem runs.  This layer expands
 * a cross-product of configuration axes into a deterministic run
 * list and executes it on a worker pool.
 *
 * Concurrency contract ("one SimSystem per thread"): each run
 * builds, executes, and destroys its own SimSystem entirely on one
 * worker thread; SimSystem instances share no mutable state (see
 * system/sim_system.hh).  Results are stored into pre-sized slots
 * indexed by the run's position in the expanded matrix, so output
 * order — and, with per-run seeds, output bytes — are identical
 * for any worker count.
 */

#ifndef VSNOOP_SYSTEM_SWEEP_HH_
#define VSNOOP_SYSTEM_SWEEP_HH_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "system/run_result.hh"
#include "system/sim_system.hh"

namespace vsnoop
{

/**
 * One point of the sweep cross-product.
 */
struct SweepPoint
{
    std::string app;
    PolicyKind policy = PolicyKind::VirtualSnoop;
    RelocationMode relocation = RelocationMode::Counter;
    RoPolicy roPolicy = RoPolicy::Broadcast;
    std::uint64_t seed = 1;
};

/**
 * A sweep: configuration axes crossed over a base configuration.
 *
 * Every axis must be non-empty; expand() emits apps-major,
 * seeds-minor order (app, policy, relocation, ro_policy, seed),
 * matching the nesting of the paper's figure sweeps.
 */
struct SweepMatrix
{
    std::vector<std::string> apps;
    std::vector<PolicyKind> policies = {PolicyKind::VirtualSnoop};
    std::vector<RelocationMode> relocations = {RelocationMode::Counter};
    std::vector<RoPolicy> roPolicies = {RoPolicy::Broadcast};
    std::vector<std::uint64_t> seeds = {1};
    /** Template configuration; each point overrides the policy
     *  fields and the seed. */
    SystemConfig base;
    /**
     * When non-empty, every run writes a Chrome trace to
     * `<traceDir>/<app>-<policy>-<relocation>-<ro>-s<seed>.trace.json`
     * (see traceFileName()).  The directory must exist.  Trace
     * files are per-run, so parallel workers never share one and
     * sweep stdout stays byte-identical for any job count.
     */
    std::string traceDir;

    std::size_t runCount() const;

    /** The cross-product in deterministic order. */
    std::vector<SweepPoint> expand() const;

    /** The base configuration specialized to one point. */
    SystemConfig configFor(const SweepPoint &point) const;

    /** Trace file name (without directory) for one point. */
    static std::string traceFileName(const SweepPoint &point);
};

/**
 * Invoke fn(0..count-1), spread over up to @p jobs worker threads.
 *
 * The generic worker pool under runSweep(), exposed so benches can
 * parallelize their own run lists.  fn must be safe to call
 * concurrently for distinct indices; each index is invoked exactly
 * once.  jobs == 0 selects hardware concurrency.  Any vsnoop_fatal
 * / vsnoop_panic inside fn terminates the process as in serial
 * code.
 *
 * A non-empty @p cancel is polled before each dispatch; once it
 * returns true, no further indices are started (indices already
 * running finish normally, so every index is invoked exactly once
 * or not at all — never partially).
 */
void runIndexed(std::size_t count, unsigned jobs,
                const std::function<void(std::size_t)> &fn,
                const std::function<bool()> &cancel = {});

/**
 * Execute every point of the matrix and return results in
 * expand() order.  Looks profiles up with findApp() (fatal on an
 * unknown name) before spawning workers.
 */
std::vector<RunResult> runSweep(const SweepMatrix &matrix,
                                unsigned jobs = 0);

class SweepHeartbeat;

/**
 * Outcome of a monitored (and possibly cancelled) sweep.  results
 * is always runCount() slots in expand() order, but when the sweep
 * was cancelled only slots with completed[i] != 0 hold a run —
 * consumers must filter on the mask before touching a slot.
 */
struct SweepExecution
{
    std::vector<RunResult> results;
    /** completed[i] != 0 iff results[i] holds a finished run. */
    std::vector<std::uint8_t> completed;
    /** True when @p cancel stopped dispatch before the last run. */
    bool interrupted = false;

    std::size_t completedCount() const;
};

/**
 * runSweep() with live observation and cooperative cancellation.
 *
 * A non-null @p heartbeat (constructed from the same matrix; the
 * cell count must match) receives per-run lifecycle transitions and
 * progress samples: each worker calls start() on its cell, feeds it
 * from the SimSystem progress callback, and finish()es it — all on
 * the worker thread, so monitor threads read live cells without
 * ever blocking simulation.  A non-empty @p cancel stops dispatch
 * as in runIndexed(); in-flight runs still complete and are marked
 * in the mask.
 *
 * Observation is read-only with respect to simulation state: for a
 * given matrix and seeds, each completed RunResult is byte-for-byte
 * identical with or without a heartbeat, at any job count.
 *
 * A non-empty @p onRunDone is invoked on the worker thread for each
 * completed run, after its result slot is filled, with the run's
 * index and result.  It may be called concurrently for distinct
 * indices and must synchronize any shared state it touches (the
 * perfmon aggregator does so under its own lock).
 */
SweepExecution runSweepMonitored(
    const SweepMatrix &matrix, unsigned jobs = 0,
    SweepHeartbeat *heartbeat = nullptr,
    const std::function<bool()> &cancel = {},
    const std::function<void(std::size_t, const RunResult &)>
        &onRunDone = {});

} // namespace vsnoop

#endif // VSNOOP_SYSTEM_SWEEP_HH_
