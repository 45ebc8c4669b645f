/**
 * @file
 * Measurement core of the simulator benchmark (see README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * builds the named workload's inputs, one or kInputsPerSeed
 * SystemConfigs, from the seed and runs them serially on this thread.
 * With --trace 0 it times SimSystem construction and run() with thread
 * CPU time, cycling through the inputs for S seconds; with --trace 1 it
 * makes the traced run of the first input: plain and perf-enabled
 * runs in alternation, then the isolated per-layer replays
 * (replay.hh).  Every run's JSON (without the build meta block) must
 * equal the first run's of the same input; a perf run's model results
 * must equal a plain run's.
 *
 * The last stdout line is one raw record for perfbench/run.py:
 *
 *   {"workload": ..., "seed": ..., "trace": 0|1,
 *    "attempted": A, "failed": F,
 *    "digests": [{"fnv1a64": "...", "bytes": B}, ...],
 *    "metrics": {"<name>": {"unit": "...", ["value": V,]
 *                           "samples": [...]}, ...}}
 *
 * with one digest per input run.  run.py checks the digests against
 * the pinned references and reports each metric's value, or the
 * median of its samples when the record gives no value.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "replay.hh"
#include "sim/logging.hh"
#include "system/run_result.hh"

using namespace vsnoop;
using perfbench::threadCpuSeconds;

namespace
{

/**
 * Simulator seeds per benchmark seed.  The work a run does varies
 * with the seed (churn-16's shuffle order moves its events per access
 * by up to 12%), so an end-to-end churn-16 run measures several inputs
 * and reports them together; across benchmark seeds its figures then
 * spread about half as much.  The 64-core workloads' work hardly
 * moves with the seed (events per access within 0.4%), so they run
 * the first input only: their runs last about a second, and one input
 * gives every execution slice four times the samples (see
 * measureEndToEnd).
 */
constexpr std::uint64_t kInputsPerSeed = 4;

/** A workload: the application and its generated configurations. */
struct Workload
{
    std::string name;
    std::string app;
    /** Identical but for the seed: seed * kInputsPerSeed + i. */
    std::vector<SystemConfig> inputs;
};

/**
 * The benchmark's workloads (README.md says why each exists).  The
 * seed is the only input; the simulator sees just the configs.
 */
bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &out)
{
    SystemConfig c;
    c.l2.sizeBytes = 128 * 1024;
    std::uint64_t inputs = kInputsPerSeed;
    out.name = name;
    if (name == "broadcast-64" || name == "filtered-64") {
        c.mesh.width = 8;
        c.mesh.height = 8;
        c.numVms = 16;
        c.vcpusPerVm = 4;
        c.accessesPerVcpu = 1000;
        c.policy = name == "broadcast-64" ? PolicyKind::TokenB
                                          : PolicyKind::VirtualSnoop;
        c.vsnoop.relocation = RelocationMode::Counter;
        out.app = "ferret";
        inputs = 1;
    } else if (name == "churn-16") {
        c.accessesPerVcpu = 8000;
        c.policy = PolicyKind::VirtualSnoop;
        c.vsnoop.relocation = RelocationMode::CounterThreshold;
        c.vsnoop.roPolicy = RoPolicy::IntraVm;
        c.migrationPeriod = 20000;
        out.app = "canneal";
    } else {
        return false;
    }
    c.warmupAccessesPerVcpu = c.accessesPerVcpu / 4;
    for (std::uint64_t i = 0; i < inputs; ++i) {
        c.seed = seed * kInputsPerSeed + i;
        out.inputs.push_back(c);
    }
    return true;
}

std::uint64_t
generatedAccesses(const SystemConfig &c)
{
    return static_cast<std::uint64_t>(c.numVms) * c.vcpusPerVm *
           (c.accessesPerVcpu + c.warmupAccessesPerVcpu);
}

/** Run JSON without the leading build-provenance "meta" member. */
std::string
withoutMeta(const std::string &json)
{
    std::size_t app = json.find(",\"app\":");
    if (json.rfind("{\"meta\":", 0) != 0 || app == std::string::npos)
        return json;
    return "{" + json.substr(app + 1);
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One simulation: construction, run() and result collection. */
struct RunSample
{
    double setupS = 0.0;
    double runS = 0.0;
    /**
     * run() split at its progress reports: thread-CPU seconds of each
     * execution slice, in order.  The slices of one input are the
     * same work in every run (a slice is a fixed span of simulated
     * time), so runs of that input compare slice by slice.
     */
    std::vector<double> slices;
    double resultsS = 0.0;
    /** Run JSON without meta, perf block and perf config keys. */
    std::string json;
    /** Kernel events dispatched by run() (warmup and drain included). */
    std::uint64_t events = 0;
    /** perfmon was on (its sampler adds events of its own). */
    bool perf = false;
    SystemResults results;
    std::vector<std::string> problems;
};

RunSample
runOnce(SystemConfig config, const std::string &appName, bool perf)
{
    RunSample s;
    config.perf = perf;
    const AppProfile &app = findApp(appName);
    double t0 = threadCpuSeconds();
    SimSystem system(config, app);
    std::vector<double> marks;
    system.setProgressCallback([&marks](const ProgressSample &) {
        marks.push_back(threadCpuSeconds());
    });
    double t1 = threadCpuSeconds();
    system.run();
    double t2 = threadCpuSeconds();
    double from = t1;
    for (double mark : marks) {
        s.slices.push_back(mark - from);
        from = mark;
    }
    s.slices.push_back(t2 - from);
    RunResult rr = collectResults(system, appName);
    s.results = rr.results;
    // The model output must not depend on perfmon: compare with the
    // perf block and its config keys left out.
    rr.config.perf = false;
    rr.results.perf.enabled = false;
    std::string json = rr.toJson();
    double t3 = threadCpuSeconds();
    s.setupS = t1 - t0;
    s.runS = t2 - t1;
    s.resultsS = t3 - t2;
    s.json = withoutMeta(json);
    s.events = system.eventQueue().eventsProcessed();
    s.perf = perf;
    const std::uint64_t quota =
        config.accessesPerVcpu + config.warmupAccessesPerVcpu;
    for (std::size_t v = 0; v < system.numDrivers(); ++v) {
        std::uint64_t issued = system.driver(v).issued();
        if (issued != quota) {
            s.problems.push_back("vCPU " + std::to_string(v) + " issued " +
                                 std::to_string(issued) + " of " +
                                 std::to_string(quota) + " accesses");
        }
    }
    return s;
}

/**
 * Output check: every run must reproduce the first run of the same
 * input.
 */
class Checker
{
  public:
    explicit Checker(std::size_t inputs) : first_(inputs), events_(inputs) {}

    /** Count one run, and a failure (with a stderr note) if it failed. */
    void
    check(std::size_t input, const RunSample &s, const char *what)
    {
        ++attempted_;
        bool ok = s.problems.empty();
        for (const std::string &p : s.problems)
            std::cerr << "perfbench: " << what << ": " << p << "\n";
        if (first_[input].empty()) {
            first_[input] = s.json;
        } else if (s.json != first_[input]) {
            std::cerr << "perfbench: " << what << ": run JSON of input "
                      << input << " differs from its first run\n";
            ok = false;
        }
        // perfmon's sampler adds events of its own; only plain runs
        // must agree on the count.
        if (!s.perf && events_[input] == 0) {
            events_[input] = s.events;
        } else if (!s.perf && s.events != events_[input]) {
            std::cerr << "perfbench: " << what << ": dispatched " << s.events
                      << " events, first run " << events_[input] << "\n";
            ok = false;
        }
        if (!ok)
            ++failed_;
    }

    void
    fail(const std::string &why)
    {
        std::cerr << "perfbench: " << why << "\n";
        ++attempted_;
        ++failed_;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** One digest per input that ran, in input order. */
    void
    writeDigests(std::FILE *out) const
    {
        std::fputs("[", out);
        for (std::size_t i = 0; i < first_.size() && !first_[i].empty(); ++i) {
            std::fprintf(out,
                         "%s{\"fnv1a64\": \"%016" PRIx64 "\", \"bytes\": %zu}",
                         i ? ", " : "", fnv1a64(first_[i]), first_[i].size());
        }
        std::fputs("]", out);
    }

  private:
    std::vector<std::string> first_;
    std::vector<std::uint64_t> events_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Named metrics with their units and per-repetition samples. */
class Metrics
{
  public:
    /** Record one sample of @p name. */
    void
    add(const std::string &name, const char *unit, double sample)
    {
        entry(name, unit).samples.push_back(sample);
    }

    /** Report @p value for @p name instead of its samples' median. */
    void
    set(const std::string &name, const char *unit, double value)
    {
        Entry &e = entry(name, unit);
        e.value = value;
        e.hasValue = true;
    }

    void
    write(std::FILE *out) const
    {
        std::fputs("{", out);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            std::fprintf(out, "%s\"%s\": {\"unit\": \"%s\", ",
                         i ? ", " : "", e.name.c_str(), e.unit);
            if (e.hasValue)
                std::fprintf(out, "\"value\": %.17g, ", e.value);
            std::fputs("\"samples\": [", out);
            for (std::size_t k = 0; k < e.samples.size(); ++k)
                std::fprintf(out, "%s%.17g", k ? ", " : "", e.samples[k]);
            std::fputs("]}", out);
        }
        std::fputs("}", out);
    }

  private:
    struct Entry
    {
        std::string name;
        const char *unit;
        std::vector<double> samples;
        double value = 0.0;
        bool hasValue = false;
    };

    Entry &
    entry(const std::string &name, const char *unit)
    {
        for (Entry &e : entries_) {
            if (e.name == name)
                return e;
        }
        return entries_.emplace_back(Entry{name, unit, {}});
    }

    std::vector<Entry> entries_;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Repetitions of the layer replays in a traced run. */
constexpr int kReplayReps = 3;

/**
 * Timed constructions per end-to-end repetition, besides the one that
 * builds the run's system.  Construction takes about 1% of a run, so
 * the best of many costs little.
 */
constexpr int kSetupSamples = 8;

/**
 * End-to-end measurement: runs cycling through the inputs for
 * @p seconds (at least two of each, so every run has a same-process,
 * same-seed rerun to agree with).
 *
 * The timings report the best the host allowed, not the median: host
 * interference only ever slows work down, and on a shared host it
 * comes in phases of seconds to minutes (README.md).  accesses_per_s
 * takes, for every input, the fastest time any of its runs spent in
 * each execution slice, and adds them up: the run that input would
 * have had if every slice had met the host at its quietest.  Slices
 * last tens of milliseconds, so a fast spell shorter than a whole run
 * still counts.
 *
 * Each repetition starts with an untimed construction: the first
 * system built after a teardown faults its memory in afresh and takes
 * about twice as long, so the timed constructions (the setup_s
 * samples) always meet the same warm allocator.
 */
void
measureEndToEnd(const Workload &w, double seconds, Checker &checker,
                Metrics &m)
{
    const std::size_t inputs = w.inputs.size();
    const AppProfile &app = findApp(w.app);
    const double accesses =
        static_cast<double>(generatedAccesses(w.inputs.front()));
    constexpr double kNever = std::numeric_limits<double>::infinity();
    std::vector<std::uint64_t> events(inputs, 0);
    // Per input, the fastest time seen for each execution slice.
    std::vector<std::vector<double>> fastest(inputs);
    double bestSetup = kNever;
    auto start = Clock::now();
    for (std::size_t rep = 0;
         rep < 2 * inputs || secondsSince(start) < seconds; ++rep) {
        const std::size_t i = rep % inputs;
        { SimSystem warm(w.inputs[i], app); }
        for (int k = 0; k < kSetupSamples; ++k) {
            double t0 = threadCpuSeconds();
            SimSystem timed(w.inputs[i], app);
            double setupS = threadCpuSeconds() - t0;
            bestSetup = std::min(bestSetup, setupS);
            m.add("setup_s", "s", setupS);
        }
        RunSample s = runOnce(w.inputs[i], w.app, false);
        checker.check(i, s, "run");
        std::vector<double> &f = fastest[i];
        if (f.empty()) {
            f = s.slices;
        } else if (f.size() != s.slices.size()) {
            checker.fail("input " + std::to_string(i) + " ran " +
                         std::to_string(s.slices.size()) +
                         " slices, its first run " +
                         std::to_string(f.size()));
        } else {
            for (std::size_t k = 0; k < f.size(); ++k)
                f[k] = std::min(f[k], s.slices[k]);
        }
        bestSetup = std::min(bestSetup, s.setupS);
        events[i] = s.events;
        m.add("setup_s", "s", s.setupS);
        m.add("accesses_per_s", "1/s", accesses / s.runS);
    }
    std::uint64_t eventSum = 0;
    double fastestS = 0.0;
    for (std::size_t i = 0; i < inputs; ++i) {
        eventSum += events[i];
        for (double slice : fastest[i])
            fastestS += slice;
    }
    const double eventsPerAccess =
        static_cast<double>(eventSum) / (inputs * accesses);
    m.set("setup_s", "s", bestSetup);
    m.set("accesses_per_s", "1/s", inputs * accesses / fastestS);
    m.add("events_per_access", "event/access", eventsPerAccess);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    m.add("peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0);
}

/**
 * The traced run of the first input: plain and perf-enabled runs in
 * alternation for about half of @p seconds, then the layer replays.
 */
void
measureTraced(const Workload &w, double seconds, Checker &checker,
              Metrics &m)
{
    const SystemConfig &config = w.inputs.front();
    const std::uint32_t cores = config.numCores();
    const double accesses = static_cast<double>(generatedAccesses(config));
    std::vector<double> plainS, perfS;
    RunSample plain, perf;
    auto start = Clock::now();
    for (int pair = 0; pair < 2 || secondsSince(start) < seconds / 2;
         ++pair) {
        // Alternate which side runs first so host drift hits both.
        for (int side = 0; side < 2; ++side) {
            bool withPerf = (side == 1) != (pair % 2 == 1);
            RunSample s = runOnce(config, w.app, withPerf);
            checker.check(0, s, withPerf ? "perf run" : "plain run");
            (withPerf ? perfS : plainS).push_back(s.runS);
            if (!withPerf) {
                m.add("system.results_ms", "ms", s.resultsS * 1e3);
                plain = std::move(s);
            } else {
                perf = std::move(s);
            }
        }
    }
    const double plainRun = median(plainS);

    const SystemResults &r = plain.results;
    const PerfMon &p = perf.results.perf;
    const EventQueuePerf &q = p.eventQueue;
    const double txn = static_cast<double>(r.transactions);
    m.add("trace.perf_overhead_ratio", "ratio", median(perfS) / plainRun);
    m.add("sim.events", "count", static_cast<double>(plain.events));
    m.add("sim.schedules", "count", static_cast<double>(q.schedules));
    m.add("sim.wheel_inserts", "count", static_cast<double>(q.wheelInserts));
    m.add("sim.overflow_inserts", "count",
          static_cast<double>(q.overflowInserts));
    m.add("sim.overflow_share", "share",
          ratio(static_cast<double>(q.overflowInserts),
                static_cast<double>(q.schedules)));
    m.add("sim.pool_refills", "count", static_cast<double>(q.poolRefills));
    m.add("sim.pool_reuses", "count", static_cast<double>(q.poolReuses));
    const std::pair<const char *, const FlatTablePerf *> tables[] = {
        {"mshr", &p.mshrs},
        {"inflight", &p.inflight},
        {"ledger", &p.memoryLedger},
    };
    std::uint64_t cleanups = 0;
    for (const auto &[name, table] : tables) {
        const LatencyHistogram &h = table->probeLength;
        std::string base = std::string("sim.") + name;
        m.add(base + "_probes", "count", static_cast<double>(h.count()));
        m.add(base + "_probe_sum", "count", static_cast<double>(h.sum()));
        m.add(base + "_probe_mean", "slot/probe",
              ratio(static_cast<double>(h.sum()),
                    static_cast<double>(h.count())));
        cleanups += table->tombstoneCleanups;
    }
    m.add("sim.tombstone_cleanups", "count", static_cast<double>(cleanups));
    m.add("core.snoop_lookups", "count", static_cast<double>(r.snoopLookups));
    m.add("core.map_adds", "count", static_cast<double>(r.mapAdds));
    m.add("core.map_removals", "count", static_cast<double>(r.mapRemovals));
    m.add("coherence.transactions", "count", txn);
    m.add("coherence.retries", "count", static_cast<double>(r.retries));
    m.add("coherence.persistent_requests", "count",
          static_cast<double>(r.persistentRequests));
    m.add("coherence.txn_per_access", "txn/access",
          ratio(txn, static_cast<double>(r.totalAccesses)));
    m.add("coherence.retries_per_txn", "retry/txn",
          ratio(static_cast<double>(r.retries), txn));
    m.add("coherence.persistent_per_txn", "request/txn",
          ratio(static_cast<double>(r.persistentRequests), txn));
    m.add("coherence.first_try_share", "share",
          ratio(static_cast<double>(r.latencyFirstTry.count()),
                static_cast<double>(r.latency.count())));
    m.add("coherence.completed", "count",
          static_cast<double>(r.latency.count()));

    const AppProfile &app = findApp(w.app);
    perfbench::ReplayCounts counts;
    for (int rep = 0; rep < kReplayReps; ++rep) {
        perfbench::ReplayResult rr = perfbench::replayLayers(config, app);
        for (const std::string &problem : rr.problems)
            checker.fail("replay: " + problem);
        if (rep == 0) {
            counts = rr.counts;
        } else if (!(rr.counts == counts)) {
            checker.fail("replay counts differ between repetitions");
        }
        const perfbench::ReplayTimes &t = rr.times;
        const double n = static_cast<double>(rr.counts.accesses);
        m.add("workload.ns_per_next", "ns", t.next * 1e9 / n);
        m.add("core.ns_per_targets", "ns", t.targets * 1e9 / n);
        m.add("mem.ns_per_lookup", "ns", t.cache * 1e9 / n);
        m.add("noc.ns_per_send", "ns",
              ratio(t.send * 1e9, static_cast<double>(rr.counts.sends)));
        m.add("sim.ns_per_event", "ns",
              ratio(t.event * 1e9, static_cast<double>(rr.counts.events)));
        m.add("virt.content_scan_ms", "ms", t.scan * 1e3);
        double replayed =
            (t.next + t.targets + t.cache + t.send + t.event) / n;
        m.add("coherence.remainder_ns_per_access", "ns",
              (plainRun / accesses - replayed) * 1e9);
    }
    const double n = static_cast<double>(counts.accesses);
    const double sends = static_cast<double>(counts.sends);
    const double base = n * (cores - 1);
    m.add("workload.accesses", "count", n);
    m.add("virt.pages_merged", "count",
          static_cast<double>(counts.pagesMerged));
    m.add("core.targets_per_call", "core/call",
          static_cast<double>(counts.targetSum) / n);
    m.add("core.filter_ratio", "share",
          1.0 - ratio(static_cast<double>(counts.targetSum), base));
    m.add("core.filter_base", "count", base);
    m.add("mem.replay_lookups", "count", n);
    m.add("mem.replay_hits", "count", static_cast<double>(counts.cacheHits));
    m.add("mem.replay_hit_ratio", "share",
          static_cast<double>(counts.cacheHits) / n);
    m.add("noc.replay_sends", "count", sends);
    m.add("noc.replay_hops", "count", static_cast<double>(counts.hops));
    m.add("noc.replay_wait_ticks", "count",
          static_cast<double>(counts.waitTicks));
    m.add("noc.sends_per_access", "send/access", sends / n);
    m.add("noc.hops_per_send", "hop/send",
          ratio(static_cast<double>(counts.hops), sends));
    m.add("noc.wait_per_send", "tick/send",
          ratio(static_cast<double>(counts.waitTicks), sends));
}

int
usage()
{
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "workloads: broadcast-64 filtered-64 churn-16\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            workloadName = value;
        } else if (flag == "--seed") {
            seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else {
            return usage();
        }
        if (end != nullptr && *end != '\0')
            return usage();
    }
    if (argc % 2 != 1 || (trace != 0 && trace != 1) || !(seconds > 0.0))
        return usage();
    Workload w;
    if (!makeWorkload(workloadName, seed, w))
        return usage();

    quietLogging(true);
    Checker checker(w.inputs.size());
    Metrics metrics;
    if (trace == 0)
        measureEndToEnd(w, seconds, checker, metrics);
    else
        measureTraced(w, seconds, checker, metrics);

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"trace\": %d, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"digests\": ",
                w.name.c_str(), seed, trace, checker.attempted(),
                checker.failed());
    checker.writeDigests(stdout);
    std::printf(", \"metrics\": ");
    metrics.write(stdout);
    std::printf("}\n");
    return 0;
}
