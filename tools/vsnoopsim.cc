/**
 * @file
 * vsnoopsim — command-line front end for the simulator.
 *
 * Runs one configuration end to end and prints the full result set
 * (coherence, network, policy, memory, and energy statistics).
 * The configuration flags come from the SystemConfig field table
 * (system/config_fields.hh), so the tool doubles as the scripting
 * interface for custom experiments:
 *
 *   vsnoopsim --app canneal --policy vsnoop --relocation counter \
 *             --migration-period 50000 --accesses 20000
 *
 * Flags accept both "--flag value" and "--flag=value".  Run with
 * --help for the full flag list.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"
#include "sim/stats_server.hh"
#include "sim/table.hh"
#include "system/energy.hh"
#include "system/heartbeat.hh"
#include "system/run_result.hh"
#include "system/sim_system.hh"
#include "system/sweep.hh"
#include "trace/trace.hh"

#include "cli.hh"

using namespace vsnoop;

const char *const vsnoop::kToolName = "vsnoopsim";

namespace
{

void
usage(const SystemConfig &defaults)
{
    std::cout <<
        "vsnoopsim — virtual snooping simulator\n"
        "\n"
        "usage: vsnoopsim [flags]\n"
        "\n"
        "workload:\n"
        "  --app NAME            application profile (default ferret);\n"
        "                        one of: cholesky fft lu ocean radix\n"
        "                        blackscholes canneal dedup ferret\n"
        "                        specjbb, plus the scheduler-study set\n"
        "\n"
        "configuration:\n"
              << knobFlagHelp(KnobFlags::Sim, defaults) <<
        "\n"
        "observability:\n"
        "  --trace FILE          capture the coherence transaction\n"
        "                        trace and export it as a Chrome\n"
        "                        trace-event JSON file (load in\n"
        "                        Perfetto / chrome://tracing)\n"
        "  --profile             profile the simulator itself: print\n"
        "                        a per-phase host time breakdown and\n"
        "                        events/s to stderr after the run\n"
        "  --stats-addr H:P      serve live telemetry over HTTP while\n"
        "                        the run executes: /metrics\n"
        "                        (Prometheus text format, including\n"
        "                        the full simulator stat set),\n"
        "                        /progress and /runs (JSON).  Port 0\n"
        "                        picks a free port; the bound address\n"
        "                        is printed to stderr.  Default off;\n"
        "                        results are byte-identical either\n"
        "                        way.\n"
        "\n"
        "output:\n"
        "  --energy              include the energy estimate\n"
        "  --json                print one JSON object (the full\n"
        "                        result record, energy included)\n"
        "                        instead of the text tables\n"
        "  --help                this text\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app_name = "ferret";
    SystemConfig cfg;
    cfg.accessesPerVcpu = 20000;
    const SystemConfig defaults = cfg;
    bool warmup_set = false;
    bool want_energy = false;
    bool want_json = false;
    bool want_profile = false;
    std::string stats_addr;
    std::string error;

    std::vector<std::string> args = normalizeArgs(argc, argv);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--help" || flag == "-h") {
            usage(defaults);
            return 0;
        } else if (flag == "--app") {
            app_name = nextValue(args, i);
        } else if (flag == "--trace") {
            cfg.tracePath = nextValue(args, i);
        } else if (flag == "--profile") {
            want_profile = true;
        } else if (flag == "--stats-addr") {
            stats_addr = nextValue(args, i);
        } else if (flag == "--energy") {
            want_energy = true;
        } else if (flag == "--json") {
            want_json = true;
        } else if (const ConfigField *knob = parseKnobFlag(
                       args, &i, KnobFlags::Sim, &cfg, &error)) {
            if (!error.empty())
                die(error);
            warmup_set |=
                knob->ref(cfg) == FieldRef(&cfg.warmupAccessesPerVcpu);
        } else {
            die("unknown flag '" + flag + "' (try --help)");
        }
    }
    if (!warmup_set)
        cfg.warmupAccessesPerVcpu = cfg.accessesPerVcpu / 4;
    if (!validateConfig(cfg, &error))
        die(error);

    const AppProfile *app = tryFindApp(app_name);
    if (app == nullptr)
        die("unknown --app '" + app_name + "'; known: " +
            joinNames(knownAppNames()));

    quietLogging(true);

    // One shared execution path: collectRun() runs the system,
    // gathers the result record, and exports the Chrome trace when
    // --trace is set.  The --stats-addr path builds the system
    // itself so it can attach the live-telemetry observers, then
    // assembles the record through the same collectResults(), so
    // the output bytes are identical either way.
    HostProfiler profiler;
    RunResult run;
    if (stats_addr.empty()) {
        run = collectRun(cfg, *app, want_profile ? &profiler : nullptr);
    } else {
        // Single-run telemetry: a one-point sweep matrix gives the
        // heartbeat exactly one cell, and the full simulator stat
        // set rides along as vsnoop_sim_* series.
        SweepMatrix matrix;
        matrix.apps = {app->name};
        matrix.policies = {cfg.policy};
        matrix.relocations = {cfg.vsnoop.relocation};
        matrix.roPolicies = {cfg.vsnoop.roPolicy};
        matrix.seeds = {cfg.seed};
        matrix.base = cfg;

        const std::uint64_t stall_ms = 30000;
        SweepHeartbeat heartbeat(matrix);
        MetricsRegistry registry;
        heartbeat.registerMetrics(registry);

        SimSystem system(cfg, *app);
        if (want_profile)
            system.setProfiler(&profiler);
        StatSet stats;
        system.registerStats(stats);
        StatSetExport stats_export(stats, registry, "vsnoop_sim_");
        TraceSink *trace = system.trace();
        if (trace != nullptr)
            trace->registerMetrics(registry, "vsnoop_sim_");
        registry.freeze();

        StatsServer server;
        registerTelemetryRoutes(server, registry, heartbeat, stall_ms);
        std::string error;
        if (!server.start(stats_addr, &error))
            die("--stats-addr " + stats_addr + ": " + error);
        std::cerr << "vsnoopsim: listening on http://"
                  << server.address() << "\n";

        // The simulating thread is the registry's single publisher:
        // publication is throttled by wall clock, which only gates
        // visibility — never simulation — so determinism holds.
        RunProgress &cell = heartbeat.run(0);
        heartbeat.markLaunched(steadyNowMs());
        cell.start(steadyNowMs());
        std::uint64_t last_publish = 0;
        system.setProgressCallback(
            [&](const ProgressSample &sample) {
                std::uint64_t now = steadyNowMs();
                cell.update(sample, now);
                if (!sample.finished && now - last_publish < 100)
                    return;
                last_publish = now;
                stats_export.update();
                if (trace != nullptr)
                    trace->stageMetrics(registry);
                heartbeat.publishMetrics(registry, now, stall_ms);
            });
        system.run();
        cell.finish(steadyNowMs());
        stats_export.update();
        if (trace != nullptr)
            trace->stageMetrics(registry);
        heartbeat.publishMetrics(registry, steadyNowMs(), stall_ms);

        run = collectResults(system, app->name);
        server.stop();
    }

    if (!cfg.tracePath.empty())
        std::cerr << "vsnoopsim: trace written to " << cfg.tracePath
                  << "\n";
    // Wall-clock profiles are nondeterministic, so they go to
    // stderr and never into the JSON record.
    if (want_profile)
        writeProfile(std::cerr, profiler);

    if (want_json) {
        // The structured record covers everything the text tables
        // print (energy included), so the machine-readable path
        // shares the sweep runner's serialization.
        std::cout << run.toJson() << "\n";
        return 0;
    }

    const SystemResults &r = run.results;

    std::cout << "vsnoopsim: " << app->name << " on "
              << cfg.mesh.width << "x" << cfg.mesh.height << " mesh, "
              << cfg.numVms << " VMs x " << cfg.vcpusPerVm
              << " vCPUs\n\n";

    TextTable table({"metric", "value"});
    table.row().cell("runtime (ticks)").cell(r.runtime);
    table.row().cell("accesses").cell(r.totalAccesses);
    table.row().cell("L2 misses (transactions)").cell(r.transactions);
    table.row().cell("snoop lookups").cell(r.snoopLookups);
    table.row()
        .cell("snoop lookups / transaction")
        .cell(static_cast<double>(r.snoopLookups) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, r.transactions)),
              2);
    table.row().cell("traffic (byte-hops)").cell(r.trafficByteHops);
    table.row().cell("mean miss latency (ticks)")
        .cell(r.meanMissLatency, 1);
    table.row().cell("retries").cell(r.retries);
    table.row().cell("persistent requests").cell(r.persistentRequests);
    table.row().cell("dirty writebacks").cell(r.dirtyWritebacks);
    table.row().cell("migrations").cell(r.migrations);
    table.row().cell("vCPU map adds / removals")
        .cell(std::to_string(r.mapAdds) + " / " +
              std::to_string(r.mapRemovals));
    table.print();

    std::cout << "\nL2 misses by access category:\n";
    TextTable cats({"category", "misses", "share %"});
    for (std::size_t c = 0; c < kNumAccessCategories; ++c) {
        if (r.missesByCategory[c] == 0)
            continue;
        cats.row()
            .cell(accessCategoryName(static_cast<AccessCategory>(c)))
            .cell(r.missesByCategory[c])
            .cell(100.0 * static_cast<double>(r.missesByCategory[c]) /
                      static_cast<double>(
                          std::max<std::uint64_t>(1, r.totalMisses)),
                  1);
    }
    cats.print();

    if (r.critpath.enabled && r.critpath.segments[0].count() > 0) {
        std::cout << "\nCritical-path breakdown (mean ticks / "
                     "transaction):\n";
        double txns =
            static_cast<double>(r.critpath.segments[0].count());
        TextTable crit({"segment", "mean", "share %"});
        double total = 0.0;
        for (std::size_t s = 0; s < kNumCritSegments; ++s)
            total += static_cast<double>(r.critpath.segments[s].sum());
        for (std::size_t s = 0; s < kNumCritSegments; ++s) {
            double sum =
                static_cast<double>(r.critpath.segments[s].sum());
            if (sum == 0.0)
                continue;
            crit.row()
                .cell(critSegmentName(static_cast<CritSegment>(s)))
                .cell(sum / txns, 1)
                .cell(100.0 * sum / std::max(1.0, total), 1);
        }
        crit.print();
    }
    if (r.interference.enabled &&
        r.interference.total(r.interference.snoopLookups) > 0) {
        char share[32];
        std::snprintf(share, sizeof(share), "%.1f",
                      100.0 * r.interference.offDiagLookupShare());
        std::cout << "\nInter-VM interference: " << share
                  << "% of snoop lookups hit another VM's (or the "
                     "host's) cache tags\n";
    }

    if (r.perf.enabled) {
        const PerfMon &p = r.perf;
        std::cout << "\nSimulator internals (--perf):\n";
        TextTable perf({"counter", "value"});
        perf.row().cell("events scheduled")
            .cell(p.eventQueue.schedules);
        perf.row().cell("events descheduled")
            .cell(p.eventQueue.deschedules);
        perf.row().cell("wheel inserts").cell(p.eventQueue.wheelInserts);
        perf.row().cell("overflow-heap inserts")
            .cell(p.eventQueue.overflowInserts);
        perf.row().cell("max wheel entries")
            .cell(p.eventQueue.maxWheelEntries);
        perf.row().cell("max overflow entries")
            .cell(p.eventQueue.maxOverflowEntries);
        perf.row().cell("max same-tick bucket depth")
            .cell(p.eventQueue.maxBucketDepth);
        perf.row().cell("event pool high water")
            .cell(p.eventQueue.poolHighWater);
        perf.row().cell("event pool refills / reuses")
            .cell(std::to_string(p.eventQueue.poolRefills) + " / " +
                  std::to_string(p.eventQueue.poolReuses));
        perf.print();

        std::cout << "\nHash tables (--perf):\n";
        TextTable tables({"table", "mean probe", "p99 probe",
                          "rehashes", "cleanups", "load"});
        auto table_row = [&](const char *name,
                             const FlatTablePerf &t) {
            tables.row()
                .cell(name)
                .cell(t.probeLength.mean(), 2)
                .cell(t.probeLength.quantile(0.99))
                .cell(t.growthRehashes)
                .cell(t.tombstoneCleanups)
                .cell(t.loadFactor(), 3);
        };
        table_row("mshrs", p.mshrs);
        table_row("inflight", p.inflight);
        table_row("memory ledger", p.memoryLedger);
        tables.print();

        if (p.mesh.sendBacklog.count() > 0) {
            std::cout << "\nMesh (--perf): mean send backlog "
                      << formatFixed(p.mesh.sendBacklog.mean(), 2)
                      << " cycles (p99 "
                      << p.mesh.sendBacklog.quantile(0.99)
                      << "), mean XY leg "
                      << formatFixed(p.mesh.legLength.mean(), 2)
                      << " hops\n";
        }
    }

    if (r.pages.enabled) {
        const PagesSnapshot &pg = r.pages;
        std::cout << "\nAddress space (--pages): "
                  << pg.totalLookups << " snoop lookups over "
                  << pg.cells.size() << " tracked pages";
        if (pg.truncatedLookups > 0)
            std::cout << " (+" << pg.truncatedLookups
                      << " folded from " << pg.truncatedPages
                      << " evicted pages)";
        std::cout << "\nMapped-page census:";
        for (std::size_t t = 0; t < kNumPageTypes; ++t)
            std::cout << " " << pageTypeName(static_cast<PageType>(t))
                      << "=" << pg.censusByType[t];
        std::cout << "\nLifecycle: " << pg.mapEvents << " maps, "
                  << pg.unmapEvents << " unmaps, " << pg.typeChanges
                  << " type changes, " << pg.cowBreaks
                  << " COW breaks, " << pg.remaps << " remaps\n";
        TextTable pages({"page", "type", "lookups", "misses",
                         "cross-VM", "filtered %", "sharers"});
        std::size_t shown = 0;
        for (const PageCell &cell : pg.cells) {
            if (shown++ == 10)
                break;
            std::uint64_t decisions = cell.filtered + cell.broadcast;
            std::uint32_t sharers = 0;
            for (std::uint32_t m = cell.sharerMask; m != 0; m >>= 1)
                sharers += m & 1;
            char page_hex[32];
            std::snprintf(page_hex, sizeof(page_hex), "0x%llx",
                          static_cast<unsigned long long>(
                              cell.pageNum << kPageShift));
            pages.row()
                .cell(page_hex)
                .cell(pageTypeName(cell.lastType))
                .cell(cell.lookups)
                .cell(cell.misses)
                .cell(cell.crossVm)
                .cell(decisions > 0
                          ? 100.0 * static_cast<double>(cell.filtered) /
                                static_cast<double>(decisions)
                          : 0.0,
                      1)
                .cell(static_cast<std::uint64_t>(sharers));
        }
        pages.print();
    }

    if (want_energy) {
        const EnergyBreakdown &e = run.energy;
        std::cout << "\nEnergy estimate:\n";
        TextTable energy({"component", "uJ", "share %"});
        auto row = [&](const char *name, double pj) {
            energy.row().cell(name).cell(pj / 1e6, 2).cell(
                100.0 * pj / e.totalPj(), 1);
        };
        row("snoop tag lookups", e.snoopTagPj);
        row("network", e.networkPj);
        row("DRAM", e.dramPj);
        row("L2 data arrays", e.l2DataPj);
        energy.row().cell("total").cell(e.totalPj() / 1e6, 2).cell(
            "100.0");
        energy.print();
    }

    return 0;
}
