/**
 * @file
 * vsnoopsweep — parallel multi-configuration sweep runner.
 *
 * Expands a cross-product of sweep axes (apps x policies x
 * relocation modes x RO policies x seeds) over a shared base
 * configuration and executes every resulting run on a worker pool.
 * Output is JSON lines — one self-describing object per run (see
 * system/run_result.hh) — in deterministic matrix order:
 * byte-identical for any --jobs value.
 *
 *   vsnoopsweep --apps ferret,canneal --policies tokenb,vsnoop \
 *               --relocations base,counter --seeds 1,2 --jobs 8
 *
 * reproduces a 16-run paper-style comparison on 8 cores.  Run with
 * --help for the full flag list.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/sweep_wire.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/profiler.hh"
#include "sim/stats_server.hh"
#include "system/heartbeat.hh"
#include "system/sweep.hh"

#include "cli.hh"

using namespace vsnoop;

const char *const vsnoop::kToolName = "vsnoopsweep";

namespace
{

void
usage(const SystemConfig &defaults)
{
    std::cout <<
        "vsnoopsweep — parallel configuration-sweep runner\n"
        "\n"
        "usage: vsnoopsweep [flags]\n"
        "\n"
        "Expands the cross-product of the sweep axes below into\n"
        "independent runs, executes them on a worker pool, and\n"
        "prints one JSON object per run (JSON lines) in a fixed\n"
        "matrix order: app-major, then policy, relocation,\n"
        "ro-policy, seed.  Output bytes do not depend on --jobs.\n"
        "\n"
        "sweep axes (comma-separated lists):\n"
        "  --apps A,B,...        application profiles (default\n"
        "                        ferret); 'coherence' expands to the\n"
        "                        paper's ten-app evaluation set\n"
        "  --policies P,...      tokenb | vsnoop | region (default\n"
        "                        vsnoop)\n"
        "  --relocations M,...   base | counter | counter-threshold |\n"
        "                        counter-flush (default counter)\n"
        "  --ro-policies P,...   broadcast | memory-direct | intra-vm |\n"
        "                        friend-vm (default broadcast)\n"
        "  --seeds S,...         RNG seeds, one run per seed\n"
        "                        (default 1)\n"
        "\n"
        "base configuration (applied to every run; rides the wire\n"
        "config, so it composes with --submit):\n"
              << knobFlagHelp(KnobFlags::Sweep, defaults) <<
        "\n"
        "observability:\n"
        "  --trace-dir DIR       write one Chrome trace-event JSON\n"
        "                        file per run into DIR (must exist;\n"
        "                        named <app>-<policy>-<relocation>-\n"
        "                        <ro>-s<seed>.trace.json)\n"
        "  --profile             profile the simulator itself: print\n"
        "                        an aggregated per-phase host time\n"
        "                        breakdown (CPU time summed across\n"
        "                        workers) to stderr after the sweep\n"
        "\n"
        "live monitoring (JSON output stays byte-identical):\n"
        "  --stats-addr H:P      serve live telemetry over HTTP while\n"
        "                        the sweep runs: /metrics (Prometheus\n"
        "                        text format), /progress and /runs\n"
        "                        (JSON).  Port 0 picks a free port;\n"
        "                        the bound address is printed to\n"
        "                        stderr.  Default off.\n"
        "  --heartbeat SECS      print a one-line progress summary to\n"
        "                        stderr every SECS seconds (default\n"
        "                        0 = off)\n"
        "  --stall-timeout SECS  watchdog: warn on stderr when a\n"
        "                        running simulation reports no\n"
        "                        progress for SECS seconds (default\n"
        "                        30; 0 disables)\n"
        "\n"
        "On SIGINT/SIGTERM the sweep stops dispatching new runs,\n"
        "waits for in-flight runs, writes every completed record\n"
        "plus a summary line marked \"interrupted\", and exits with\n"
        "status 128+signal.  A second signal kills immediately.\n"
        "\n"
        "remote execution:\n"
        "  --submit H:P          do not run locally: POST the matrix\n"
        "                        to a vsnoopserve instance, poll the\n"
        "                        job, and write the streamed JSONL\n"
        "                        results (byte-identical to a local\n"
        "                        run of the same matrix).  SIGINT\n"
        "                        cancels the remote job and exits\n"
        "                        130 after writing completed runs.\n"
        "\n"
        "execution:\n"
        "  --jobs N              worker threads (default hardware\n"
        "                        concurrency)\n"
        "  --out FILE            write JSON lines to FILE instead of\n"
        "                        stdout\n"
        "  --list                print the expanded matrix and exit\n"
        "                        without running\n"
        "  --help                this text\n"
        "\n"
        "Flags accept both \"--flag value\" and \"--flag=value\".\n";
}

/** Last SIGINT/SIGTERM observed; 0 while uninterrupted. */
volatile std::sig_atomic_t g_signal = 0;

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
    // Async-signal-safe notice; everything else happens on the
    // normal threads once the cancel hook observes g_signal.
    static const char msg[] =
        "\nvsnoopsweep: interrupted; waiting for in-flight runs"
        " (repeat the signal to kill)\n";
    ssize_t rc = write(2, msg, sizeof msg - 1);
    (void)rc;
}

void
installSignalHandlers()
{
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_handler = onSignal;
    sigemptyset(&action.sa_mask);
    // One-shot: a second signal gets the default (fatal) action,
    // so a hung sweep can still be killed from the keyboard.
    action.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

/** "message" from a JSON error body, or the raw body as fallback. */
std::string
serverError(const std::string &body)
{
    if (std::optional<JsonValue> doc = parseJson(body)) {
        std::string message = doc->stringAt("error");
        if (!message.empty())
            return message;
    }
    std::string trimmed = body;
    while (!trimmed.empty() &&
           (trimmed.back() == '\n' || trimmed.back() == '\r'))
        trimmed.pop_back();
    return trimmed;
}

/**
 * --submit mode: POST the matrix to a vsnoopserve instance, poll
 * the job to a terminal state (cancelling it on SIGINT), then
 * fetch and write the JSONL results — byte-identical to running
 * the same matrix locally, since both sides share collectRun().
 */
int
runSubmit(const SweepMatrix &matrix, const std::string &addr,
          const std::string &out_path)
{
    std::string error;
    std::string body = writeSweepRequestJson(matrix, "vsnoopsweep");
    // A client-chosen correlation id: the server echoes it in the
    // X-Request-Id response header, its access log, and the job's
    // status JSON, so one grep ties this submission to its whole
    // server-side lifecycle.
    char request_id[64];
    std::snprintf(
        request_id, sizeof request_id, "sweep-%ld-%llx",
        static_cast<long>(getpid()),
        static_cast<unsigned long long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count()));
    std::optional<HttpReply> reply =
        httpRequest(addr, "POST", "/jobs", body, "application/json",
                    &error, 5000, request_id);
    if (!reply)
        die("--submit " + addr + ": " + error);
    if (reply->status != 200)
        die("server rejected the submission: " +
            serverError(reply->body));
    std::optional<JsonValue> accepted = parseJson(reply->body);
    if (!accepted)
        die("malformed submission response from " + addr);
    std::uint64_t id =
        static_cast<std::uint64_t>(accepted->numberAt("job"));
    std::uint64_t total =
        static_cast<std::uint64_t>(accepted->numberAt("runs_total"));
    std::cerr << "vsnoopsweep: submitted job " << id << " (" << total
              << " runs) to http://" << addr << ", request id "
              << (reply->requestId.empty() ? request_id
                                           : reply->requestId.c_str())
              << "\n";

    bool cancel_sent = false;
    std::string state = "queued";
    std::uint64_t last_reported = std::uint64_t(-1);
    for (;;) {
        if (g_signal != 0 && !cancel_sent) {
            cancel_sent = true;
            std::cerr << "vsnoopsweep: cancelling job " << id << "\n";
            httpRequest(addr, "DELETE",
                        "/jobs/" + std::to_string(id), "", "",
                        &error);
        }
        std::optional<HttpReply> poll = httpRequest(
            addr, "GET", "/jobs/" + std::to_string(id), "", "",
            &error);
        if (!poll)
            die("lost the server while polling job " +
                std::to_string(id) + ": " + error);
        if (poll->status != 200)
            die("polling job " + std::to_string(id) + ": " +
                serverError(poll->body));
        std::optional<JsonValue> status = parseJson(poll->body);
        if (!status)
            die("malformed status response from " + addr);
        state = status->stringAt("state");
        std::uint64_t completed = static_cast<std::uint64_t>(
            status->numberAt("runs_completed"));
        std::uint64_t cached = static_cast<std::uint64_t>(
            status->numberAt("runs_from_cache"));
        if (completed != last_reported) {
            last_reported = completed;
            std::cerr << "vsnoopsweep: job " << id << ": " << state
                      << " " << completed << "/" << total;
            if (cached > 0)
                std::cerr << " (" << cached << " cached)";
            std::cerr << "\n";
        }
        if (state == "done" || state == "failed" ||
            state == "cancelled")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }

    if (state == "failed")
        die("job " + std::to_string(id) + " failed on the server");

    std::optional<HttpReply> results = httpRequest(
        addr, "GET", "/jobs/" + std::to_string(id) + "/results", "",
        "", &error);
    if (!results || results->status != 200)
        die("fetching results for job " + std::to_string(id) + ": " +
            (results ? serverError(results->body) : error));

    std::ofstream file;
    if (!out_path.empty()) {
        file.open(out_path);
        if (!file)
            die("cannot open --out file '" + out_path + "'");
    }
    std::ostream &out = out_path.empty() ? std::cout : file;
    out << results->body;
    out.flush();

    std::cerr << "vsnoopsweep: job " << id << " " << state << "\n";
    if (state == "cancelled")
        return cancel_sent ? 130 : 1;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepMatrix matrix;
    matrix.apps = {"ferret"};
    matrix.base.accessesPerVcpu = 20000;
    const SystemConfig defaults = matrix.base;
    bool warmup_set = false;
    bool list_only = false;
    bool want_profile = false;
    unsigned jobs = 0;
    std::string out_path;
    std::string submit_addr;
    std::string stats_addr;
    std::uint64_t heartbeat_secs = 0;
    std::uint64_t stall_secs = 30;
    std::string error;

    std::vector<std::string> args = normalizeArgs(argc, argv);
    // A sweep axis: a comma-separated list of enum tokens.
    auto parseAxis = [&](std::size_t &i, auto *axis) {
        const std::string &flag = args[i];
        axis->clear();
        for (const std::string &token :
             splitList(flag, nextValue(args, i))) {
            typename std::remove_reference_t<decltype(*axis)>::value_type
                value{};
            if (!parseEnumToken(token, &value))
                die("unknown " + flag + " token '" + token +
                    "'; known: " + enumTokenList<decltype(value)>());
            axis->push_back(value);
        }
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--help" || flag == "-h") {
            usage(defaults);
            return 0;
        } else if (flag == "--apps") {
            matrix.apps.clear();
            for (const std::string &name :
                 splitList(flag, nextValue(args, i))) {
                if (name == "coherence") {
                    for (const AppProfile &app : coherenceApps())
                        matrix.apps.push_back(app.name);
                } else {
                    matrix.apps.push_back(name);
                }
            }
        } else if (flag == "--policies") {
            parseAxis(i, &matrix.policies);
        } else if (flag == "--relocations") {
            parseAxis(i, &matrix.relocations);
        } else if (flag == "--ro-policies") {
            parseAxis(i, &matrix.roPolicies);
        } else if (flag == "--seeds") {
            matrix.seeds.clear();
            for (const std::string &seed :
                 splitList(flag, nextValue(args, i)))
                matrix.seeds.push_back(parseUint(flag, seed));
        } else if (flag == "--trace-dir") {
            matrix.traceDir = nextValue(args, i);
        } else if (flag == "--profile") {
            want_profile = true;
        } else if (flag == "--stats-addr") {
            stats_addr = nextValue(args, i);
        } else if (flag == "--heartbeat") {
            heartbeat_secs = parseUint(flag, nextValue(args, i));
        } else if (flag == "--stall-timeout") {
            stall_secs = parseUint(flag, nextValue(args, i));
        } else if (flag == "--submit") {
            submit_addr = nextValue(args, i);
        } else if (flag == "--jobs") {
            jobs = static_cast<unsigned>(
                parseUint(flag, nextValue(args, i)));
        } else if (flag == "--out") {
            out_path = nextValue(args, i);
        } else if (flag == "--list") {
            list_only = true;
        } else if (const ConfigField *knob = parseKnobFlag(
                       args, &i, KnobFlags::Sweep, &matrix.base,
                       &error)) {
            if (!error.empty())
                die(error);
            warmup_set |= knob->ref(matrix.base) ==
                          FieldRef(&matrix.base.warmupAccessesPerVcpu);
        } else {
            die("unknown flag '" + flag + "' (try --help)");
        }
    }
    if (!warmup_set)
        matrix.base.warmupAccessesPerVcpu =
            matrix.base.accessesPerVcpu / 4;
    if (!validateConfig(matrix.base, &error))
        die(error);

    // Fail on unknown app names before doing any work.
    for (const std::string &name : matrix.apps) {
        if (tryFindApp(name) == nullptr)
            die("unknown app '" + name + "'; known: " +
                joinNames(knownAppNames()));
    }

    std::vector<SweepPoint> points = matrix.expand();
    if (list_only) {
        for (const SweepPoint &p : points) {
            std::cout << p.app << " " << policyKindName(p.policy)
                      << " " << relocationModeToken(p.relocation) << " "
                      << roPolicyToken(p.roPolicy) << " seed=" << p.seed
                      << "\n";
        }
        std::cerr << "vsnoopsweep: " << points.size() << " runs\n";
        return 0;
    }

    if (!submit_addr.empty()) {
        if (!matrix.traceDir.empty())
            die("--submit cannot capture traces; drop --trace-dir");
        if (want_profile || !stats_addr.empty())
            die("--submit runs remotely; drop --profile and "
                "--stats-addr");
        installSignalHandlers();
        return runSubmit(matrix, submit_addr, out_path);
    }

    quietLogging(true);
    installSignalHandlers();

    const std::uint64_t stall_ms = stall_secs * 1000;
    SweepHeartbeat heartbeat(matrix);
    MetricsRegistry registry;
    heartbeat.registerMetrics(registry);
    // With --perf, each completed run's internals counters fold
    // into an aggregate the monitor thread exports as
    // vsnoop_perf_* series; the add happens on worker threads
    // under the exporter's own lock, never touching simulation.
    PerfExport perf_export;
    if (matrix.base.perf)
        perf_export.registerMetrics(registry);
    // Same pattern for --pages: per-run page-attribution snapshots
    // aggregate into vsnoop_pages_* series.
    PagesExport pages_export;
    if (matrix.base.pages)
        pages_export.registerMetrics(registry);
    registry.freeze();

    StatsServer server;
    if (!stats_addr.empty()) {
        registerTelemetryRoutes(server, registry, heartbeat, stall_ms);
        std::string error;
        if (!server.start(stats_addr, &error))
            die("--stats-addr " + stats_addr + ": " + error);
        std::cerr << "vsnoopsweep: listening on http://"
                  << server.address() << "\n";
    }

    // The monitor thread is the registry's single publisher; it
    // also prints the stderr heartbeat and runs the watchdog.  All
    // of it only reads heartbeat cells, so simulation threads never
    // notice the observer.
    std::atomic<bool> monitor_stop{false};
    std::mutex monitor_mutex;
    std::condition_variable monitor_cv;
    std::thread monitor([&] {
        std::vector<std::uint8_t> was_stalled(heartbeat.runCount(), 0);
        std::uint64_t next_beat = steadyNowMs() + heartbeat_secs * 1000;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(monitor_mutex);
                if (monitor_cv.wait_for(
                        lock, std::chrono::milliseconds(250),
                        [&] { return monitor_stop.load(); }))
                    break;
            }
            std::uint64_t now = steadyNowMs();
            if (matrix.base.perf)
                perf_export.stageMetrics(registry);
            if (matrix.base.pages)
                pages_export.stageMetrics(registry);
            heartbeat.publishMetrics(registry, now, stall_ms);
            if (stall_ms > 0) {
                for (std::size_t i = 0; i < heartbeat.runCount(); ++i) {
                    bool stalled = heartbeat.run(i).stalled(now, stall_ms);
                    if (stalled && !was_stalled[i]) {
                        std::cerr << "vsnoopsweep: watchdog: run "
                                  << heartbeat.info(i).label
                                  << " has made no progress for "
                                  << stall_secs << " s\n";
                    } else if (!stalled && was_stalled[i]) {
                        std::cerr << "vsnoopsweep: watchdog: run "
                                  << heartbeat.info(i).label
                                  << " is making progress again\n";
                    }
                    was_stalled[i] = stalled ? 1 : 0;
                }
            }
            if (heartbeat_secs > 0 && now >= next_beat) {
                std::cerr << "vsnoopsweep: "
                          << heartbeat.heartbeatLine(now) << "\n";
                next_beat = now + heartbeat_secs * 1000;
            }
        }
        // Final publish so a post-completion scrape sees the end
        // state (every run done, rate and ETA settled).
        if (matrix.base.perf)
            perf_export.stageMetrics(registry);
        if (matrix.base.pages)
            pages_export.stageMetrics(registry);
        heartbeat.publishMetrics(registry, steadyNowMs(), stall_ms);
    });

    auto start = std::chrono::steady_clock::now();
    HostProfiler profiler;
    SweepExecution exec = runSweepMonitored(
        matrix, jobs, want_profile ? &profiler : nullptr, &heartbeat,
        [] { return g_signal != 0; },
        [&](std::size_t, const RunResult &result) {
            if (result.results.perf.enabled)
                perf_export.add(result.results.perf);
            if (result.results.pages.enabled)
                pages_export.add(result.results.pages);
        });
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

    {
        std::lock_guard<std::mutex> lock(monitor_mutex);
        monitor_stop.store(true);
    }
    monitor_cv.notify_all();
    monitor.join();

    std::ofstream file;
    if (!out_path.empty()) {
        file.open(out_path);
        if (!file)
            die("cannot open --out file '" + out_path + "'");
    }
    std::ostream &out = out_path.empty() ? std::cout : file;
    // Completed records only, in matrix order; an interrupted sweep
    // never emits a partially-built record.
    for (std::size_t i = 0; i < exec.results.size(); ++i) {
        if (exec.completed[i])
            out << exec.results[i].toJson() << "\n";
    }
    std::size_t runs_completed = exec.completedCount();
    if (exec.interrupted) {
        // Trailing summary line so consumers of a truncated file can
        // tell "interrupted" from "small sweep" without guessing.
        JsonWriter json;
        json.beginObject();
        writeBuildMeta(json);
        json.key("summary").beginObject();
        json.key("interrupted").value(true);
        json.key("signal").value(static_cast<std::uint64_t>(g_signal));
        json.key("runs_completed")
            .value(static_cast<std::uint64_t>(runs_completed));
        json.key("runs_total")
            .value(static_cast<std::uint64_t>(exec.results.size()));
        json.endObject();
        json.endObject();
        out << json.str() << "\n";
    }

    // End-of-sweep summary (stderr, so JSON output stays clean).
    // When tracing was on, the summary includes the total records
    // dropped across all runs so per-file ring truncation is never
    // silent.
    double rate = elapsed > 0.0
                      ? static_cast<double>(runs_completed) / elapsed
                      : 0.0;
    std::cerr << "vsnoopsweep: " << runs_completed;
    if (exec.interrupted)
        std::cerr << "/" << exec.results.size();
    std::cerr << " runs in " << elapsed << " s (" << rate
              << " runs/s)";
    bool traced = false;
    std::uint64_t dropped = 0;
    std::uint64_t lookups = 0, offdiag = 0;
    for (std::size_t i = 0; i < exec.results.size(); ++i) {
        if (!exec.completed[i])
            continue;
        traced = traced || exec.results[i].traceAttached;
        dropped += exec.results[i].traceRecordsDropped;
        const InterferenceSnapshot &in =
            exec.results[i].results.interference;
        lookups += in.total(in.snoopLookups);
        offdiag += in.offDiagonal(in.snoopLookups);
    }
    if (traced)
        std::cerr << ", trace records dropped: " << dropped;
    if (lookups > 0) {
        // Sweep-wide isolation figure: share of all snoop lookups
        // that landed on another VM's (or the host's) cache tags.
        char share[32];
        std::snprintf(share, sizeof(share), "%.1f",
                      100.0 * static_cast<double>(offdiag) /
                          static_cast<double>(lookups));
        std::cerr << ", cross-VM lookup share: " << share << "%";
    }
    if (exec.interrupted)
        std::cerr << " — interrupted";
    std::cerr << "\n";
    if (want_profile)
        writeProfile(std::cerr, profiler);
    if (exec.interrupted)
        return 128 + static_cast<int>(g_signal);
    return 0;
}
