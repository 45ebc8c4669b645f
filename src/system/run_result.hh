/**
 * @file
 * Machine-readable results for one simulation run.
 *
 * RunResult bundles everything a finished SimSystem can report —
 * coherence, network, policy, memory, and energy statistics plus
 * the identifying configuration — and serializes it as one JSON
 * object (one line per run in sweep output), so benches and
 * external tooling consume structured data instead of scraping
 * text tables.
 *
 * The encoding is deterministic (see sim/json.hh): two runs with
 * identical configurations and seeds serialize to identical bytes
 * regardless of which thread executed them.
 */

#ifndef VSNOOP_SYSTEM_RUN_RESULT_HH_
#define VSNOOP_SYSTEM_RUN_RESULT_HH_

#include <string>

#include "system/config_fields.hh"
#include "system/energy.hh"
#include "system/sim_system.hh"

namespace vsnoop
{

class JsonWriter;

/**
 * One run's complete, self-describing result record.
 */
struct RunResult
{
    /** Application profile name. */
    std::string app;
    /** The configuration the run executed. */
    SystemConfig config;
    /** Aggregated simulation results. */
    SystemResults results;
    /** DRAM activity (for the energy model and Table IV). */
    std::uint64_t memoryReads = 0;
    std::uint64_t memoryWritebacks = 0;
    /** Energy estimate derived from the counts above. */
    EnergyBreakdown energy;
    /** @{ Trace-sink accounting (valid when a sink was attached). */
    bool traceAttached = false;
    std::uint64_t traceRecordsRecorded = 0;
    std::uint64_t traceRecordsDropped = 0;
    /** @} */

    /** Serialize as a single JSON object (no trailing newline). */
    std::string toJson() const;

    /** Append this record to an open JsonWriter. */
    void writeJson(JsonWriter &json) const;
};

/**
 * Append the build-provenance meta block ({tool, version, git,
 * compiler, build_type}; see sim/version.hh) as the member "meta"
 * of the currently open object.  Shared between every run record
 * and the sweep interruption summary so archived JSON files are
 * self-describing.
 */
void writeBuildMeta(JsonWriter &json);

/**
 * Assemble a RunResult from an already-run system (and export the
 * Chrome trace when the config set a tracePath).  Split out of
 * collectRun() for callers that need to wire observers — live
 * stats export, progress callbacks — onto the SimSystem before
 * run(); using the same assembler guarantees their JSON is
 * byte-identical to an unobserved run.
 */
RunResult collectResults(SimSystem &system, const std::string &appName);

/**
 * Run one configuration to completion and collect a RunResult.
 * Builds the SimSystem on the calling thread; safe to invoke
 * concurrently from many threads (one system per call).
 *
 * A non-null @p profiler is attached to the system for the run
 * (see sim/profiler.hh); its wall-clock totals stay out of the
 * RunResult so the JSON remains deterministic.  A non-empty
 * @p progress observer is attached the same way (sim_system.hh);
 * it is invoked on this thread during the run.
 */
RunResult collectRun(const SystemConfig &config, const AppProfile &app,
                     HostProfiler *profiler = nullptr,
                     ProgressFn progress = {});

} // namespace vsnoop

#endif // VSNOOP_SYSTEM_RUN_RESULT_HH_
