/**
 * @file
 * Service-layer tests: the content-addressed ResultStore, the
 * JobQueue state machine (including cache-served resubmission and
 * cooperative cancellation), and an end-to-end HTTP check that the
 * job API streams bytes identical to an offline sweep of the same
 * matrix.
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "service/job_api.hh"
#include "service/job_queue.hh"
#include "service/result_store.hh"
#include "service/sweep_wire.hh"
#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/slog.hh"
#include "sim/stats_server.hh"
#include "system/sweep.hh"
#include "trace/job_trace.hh"

namespace vsnoop::test
{
namespace
{

namespace fs = std::filesystem;

/** A fresh, empty store directory per test. */
fs::path
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) /
                   ("vsnoop_service_" + name);
    fs::remove_all(dir);
    return dir;
}

/** A fast 2-run matrix (1 app x 2 seeds) for queue tests. */
SweepMatrix
tinyMatrix()
{
    SweepMatrix m;
    m.apps = {"ferret"};
    m.seeds = {1, 2};
    m.base.mesh.width = 2;
    m.base.mesh.height = 2;
    m.base.numVms = 2;
    m.base.vcpusPerVm = 2;
    m.base.l2.sizeBytes = 32 * 1024;
    m.base.accessesPerVcpu = 400;
    m.base.warmupAccessesPerVcpu = 100;
    return m;
}

/** Poll @p queue until @p id reaches a terminal state. */
JobStatus
awaitTerminal(JobQueue &queue, std::uint64_t id)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(120);
    for (;;) {
        std::optional<JobStatus> status = queue.status(id);
        EXPECT_TRUE(status.has_value());
        if (!status || jobStateTerminal(status->state))
            return status ? *status : JobStatus{};
        if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "job " << id << " never finished";
            return *status;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

// ---------------------------------------------------------------
// Config field table and wire format
// ---------------------------------------------------------------

/** @p text from the first @p from up to (not including) @p to. */
std::string
slice(const std::string &text, const std::string &from,
      const std::string &to = "")
{
    std::size_t a = text.find(from);
    std::size_t b = to.empty() ? text.size() : text.find(to, a);
    if (a == std::string::npos || b == std::string::npos)
        return "<missing " + from + ">";
    return text.substr(a, b - a);
}

/** A record's identity and config block (provenance aside). */
std::string
recordConfig(const SystemConfig &config)
{
    RunResult run;
    run.app = "ferret";
    run.config = config;
    return slice(run.toJson(), "\"app\"", ",\"results\"");
}

/** Every table field set to a valid non-default value. */
SystemConfig
everyFieldConfig()
{
    SystemConfig c;
    c.policy = PolicyKind::IdealRegionFilter;
    c.vsnoop.relocation = RelocationMode::CounterFlush;
    c.vsnoop.roPolicy = RoPolicy::FriendVm;
    c.seed = 7;
    c.mesh.width = 2;
    c.mesh.height = 3;
    c.idealNetwork = true;
    c.numVms = 2;
    c.vcpusPerVm = 3;
    c.l2.sizeBytes = 65536;
    c.l2.l1SizeBytes = 16384;
    c.accessesPerVcpu = 1234;
    c.warmupAccessesPerVcpu = 321;
    c.migrationPeriod = 20000;
    c.vsnoop.counterThreshold = 5;
    c.regionBytes = 128;
    c.crossbarLatency = 9;
    c.mesh.linkBytes = 32;
    c.mesh.routerPipeline = 5;
    c.mesh.linkLatency = 2;
    c.protocol.l1Latency = 3;
    c.protocol.l2Latency = 11;
    c.protocol.memLatency = 81;
    c.protocol.retryWindow = 401;
    c.protocol.maxTransientAttempts = 5;
    c.protocol.persistentWindow = 601;
    c.vsnoop.broadcastAttempt = 4;
    c.vsnoop.mapSyncBytes = 16;
    c.vsnoop.roTokenBundle = 5;
    c.contentScan = false;
    c.contentScanPeriod = 30000;
    c.timeseriesInterval = 5000;
    c.protocol.tagLookupCycles = 4;
    c.perf = true;
    c.perfSampleInterval = 2000;
    c.pages = true;
    c.pagesTop = 8;
    c.l2.ways = 16;
    c.l2.l1Ways = 8;
    c.mesh.localLatency = 2;
    c.protocol.memTokenLatency = 7;
    c.protocol.controlBytes = 9;
    c.protocol.dataBytes = 80;
    c.hypervisor.hypervisorPages = 65;
    c.hypervisor.perVmSharedPages = 17;
    c.hypervisor.channelPages = 9;
    c.traceTicksPerMs = 12345.5;
    c.invariantCheckPeriod = 100;
    c.captureTrace = true;
    c.traceLimit = 4096;
    c.watchPages = {3, 0x12};
    return c;
}

/** Apply every flag in @p args through the knob table. */
SystemConfig
parseFlags(KnobFlags set, const std::vector<std::string> &args)
{
    SystemConfig config;
    std::string error;
    for (std::size_t i = 0; i < args.size(); ++i) {
        EXPECT_NE(parseKnobFlag(args, &i, set, &config, &error),
                  nullptr)
            << args[i];
        EXPECT_EQ(error, "") << args[i];
    }
    return config;
}

TEST(ConfigFields, EveryFieldKeepsItsBytesOnEverySurface)
{
    SystemConfig c = everyFieldConfig();
    SystemConfig defaults;
    for (const ConfigField &field : configFields()) {
        bool differs = std::visit(
            [&](auto *value) {
                using Ptr = decltype(value);
                return *value != *std::get<Ptr>(field.ref(defaults));
            },
            field.ref(c));
        EXPECT_TRUE(differs) << field.key << " is left at its default";
    }

    // Strings captured from the writers before the table existed.
    const std::string identity =
        R"("policy":"region","relocation":"counter-flush",)"
        R"("ro_policy":"friend-vm","seed":7)";
    const std::string config =
        R"({"mesh_width":2,"mesh_height":3,"ideal_network":true,)"
        R"("vms":2,"vcpus_per_vm":3,"l2_bytes":65536,"l1_bytes":16384,)"
        R"("accesses_per_vcpu":1234,"warmup_accesses_per_vcpu":321,)"
        R"("migration_period":20000,"counter_threshold":5,)"
        R"("region_bytes":128,"crossbar_latency":9,"link_bytes":32,)"
        R"("router_pipeline":5,"link_latency":2,"l1_latency":3,)"
        R"("l2_latency":11,"mem_latency":81,"retry_window":401,)"
        R"("max_transient_attempts":5,"persistent_window":601,)"
        R"("broadcast_attempt":4,"map_sync_bytes":16,)"
        R"("ro_token_bundle":5,"content_scan":false,)"
        R"("content_scan_period":30000,"timeseries_interval":5000,)"
        R"("tag_lookup_cycles":4,"perf":true,"perf_sample_interval":2000,)"
        R"("pages":true,"pages_top":8)";
    const std::string extra =
        R"("extra":{"l2_ways":16,"l1_ways":8,"local_latency":2,)"
        R"("mem_token_latency":7,"control_bytes":9,"data_bytes":80,)"
        R"("hypervisor_pages":65,"per_vm_shared_pages":17,)"
        R"("channel_pages":9,"trace_ticks_per_ms":12345.5,)"
        R"("invariant_check_period":100,"capture_trace":true,)"
        R"("trace_limit":4096,"watch_pages":[3,18]})";
    EXPECT_EQ(recordConfig(c), R"("app":"ferret",)" + identity +
                                   R"(,"config":)" + config +
                                   R"(,"watch_pages":[3,18]})");
    EXPECT_EQ(slice(runCacheKey(c, "ferret"), "\"app\""),
              R"("app":"ferret",)" + identity + R"(,"config":)" +
                  config + "}," + extra + "}");

    // Submission round trip: every wire field survives.
    SweepMatrix m;
    m.apps = {"ferret"};
    m.policies = {c.policy};
    m.relocations = {c.vsnoop.relocation};
    m.roPolicies = {c.vsnoop.roPolicy};
    m.seeds = {c.seed};
    m.base = c;
    const std::string wire = writeSweepRequestJson(m, "golden");
    EXPECT_EQ(wire, R"({"apps":["ferret"],"policies":["region"],)"
                    R"("relocations":["counter-flush"],)"
                    R"("ro_policies":["friend-vm"],"seeds":[7],)"
                    R"("label":"golden","config":)" +
                        config + "}}");
    std::optional<JsonValue> doc = parseJson(wire);
    ASSERT_TRUE(doc.has_value());
    SweepRequest req;
    std::string error;
    ASSERT_TRUE(parseSweepRequest(*doc, &req, &error)) << error;
    EXPECT_EQ(writeSweepRequestJson(req.matrix, req.label), wire);

    // Every knob flag sets the member it set before, at its scale.
    const std::vector<std::string> knobs = {
        "--mesh", "2x3", "--ideal-network", "--vms", "2", "--vcpus", "3",
        "--l2-kb", "64", "--l1-kb", "16", "--accesses", "40",
        "--warmup", "10", "--migration-period", "20000",
        "--threshold", "5", "--region-bytes", "128",
        "--timeseries-interval", "5000", "--perf",
        "--perf-sample-interval", "2000", "--pages", "--pages-top", "8",
        "--trace-limit", "4096"};
    // Captured from vsnoopsim / vsnoopsweep --json with those flags.
    const std::string flag_config =
        R"({"mesh_width":2,"mesh_height":3,"ideal_network":true,)"
        R"("vms":2,"vcpus_per_vm":3,"l2_bytes":65536,"l1_bytes":16384,)"
        R"("accesses_per_vcpu":40,"warmup_accesses_per_vcpu":10,)"
        R"("migration_period":20000,"counter_threshold":5,)"
        R"("region_bytes":128,"crossbar_latency":8,"link_bytes":16,)"
        R"("router_pipeline":4,"link_latency":1,"l1_latency":2,)"
        R"("l2_latency":10,"mem_latency":80,"retry_window":400,)"
        R"("max_transient_attempts":4,"persistent_window":600,)"
        R"("broadcast_attempt":3,"map_sync_bytes":8,)"
        R"("ro_token_bundle":4,"content_scan":true,)"
        R"("content_scan_period":0,"timeseries_interval":5000,)"
        R"("tag_lookup_cycles":3,"perf":true,"perf_sample_interval":2000,)"
        R"("pages":true,"pages_top":8)";
    SystemConfig swept = parseFlags(KnobFlags::Sweep, knobs);
    EXPECT_EQ(recordConfig(swept),
              R"("app":"ferret","policy":"vsnoop","relocation":"counter",)"
              R"("ro_policy":"broadcast","seed":1,"config":)" +
                  flag_config + "}");
    EXPECT_EQ(swept.traceLimit, 4096u);
    std::vector<std::string> sim_args = {
        "--policy", "region", "--relocation", "counter-flush",
        "--ro-policy", "friend-vm", "--seed", "7",
        "--watch-page", "0x3000", "--watch-page", "73728"};
    sim_args.insert(sim_args.end(), knobs.begin(), knobs.end());
    SystemConfig simmed = parseFlags(KnobFlags::Sim, sim_args);
    EXPECT_EQ(recordConfig(simmed), R"("app":"ferret",)" + identity +
                                        R"(,"config":)" + flag_config +
                                        R"(,"watch_pages":[3,18]})");
    EXPECT_EQ(simmed.traceLimit, 4096u);
    // Identity and watchpoints are vsnoopsim's flags only.
    std::vector<std::string> seed_flag = {"--seed", "7"};
    std::size_t at = 0;
    EXPECT_EQ(parseKnobFlag(seed_flag, &at, KnobFlags::Sweep, &swept,
                            &error),
              nullptr);

    // An unknown key and a mistyped one fail with their own message.
    auto reject = [](const std::string &text) {
        std::optional<JsonValue> bad = parseJson(text);
        EXPECT_TRUE(bad.has_value()) << text;
        SweepRequest out;
        std::string why;
        EXPECT_FALSE(parseSweepRequest(*bad, &out, &why)) << text;
        return why;
    };
    EXPECT_EQ(reject(R"({"apps":["ferret"],"config":{"vsm":2}})"),
              "unknown config key \"vsm\"");
    EXPECT_EQ(reject(R"({"apps":["ferret"],"config":{"vms":"2"}})"),
              "config key \"vms\" has the wrong type");
}

TEST(SweepWire, RejectsMachinesTheSimulatorCannotBuild)
{
    // Both used to pass validation and then abort the process: a
    // 72-core mesh in CoreSet, a 100-byte region in the filter.
    auto error_for = [](const std::string &text) {
        std::optional<JsonValue> doc = parseJson(text);
        EXPECT_TRUE(doc.has_value()) << text;
        SweepRequest req;
        std::string error;
        EXPECT_FALSE(parseSweepRequest(*doc, &req, &error)) << text;
        return error;
    };
    EXPECT_EQ(error_for(R"({"apps":["ferret"],"config":{"mesh_width":9,)"
                        R"("mesh_height":8,"vms":1,"vcpus_per_vm":1}})"),
              "a 9x8 mesh has 72 cores; at most 64 are supported");
    EXPECT_EQ(error_for(R"({"apps":["ferret"],"policies":["region"],)"
                        R"("config":{"region_bytes":100}})"),
              "region_bytes must be a positive multiple of 64");
}

// ---------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------

TEST(ResultStore, RoundTripsRecordsAndCountsHitsAndMisses)
{
    fs::path dir = freshDir("roundtrip");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;

    EXPECT_FALSE(store.get("no-such-key").has_value());
    EXPECT_EQ(store.misses(), 1u);

    store.put("key-a", "{\"run\":\"a\"}");
    store.put("key-b", "{\"run\":\"b\"}");
    EXPECT_EQ(store.insertions(), 2u);
    EXPECT_EQ(store.entryCount(), 2u);

    std::optional<std::string> got = store.get("key-a");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"a\"}");
    got = store.get("key-b");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"b\"}");
    EXPECT_EQ(store.hits(), 2u);
    EXPECT_EQ(store.misses(), 1u);
    fs::remove_all(dir);
}

TEST(ResultStore, EvictsLeastRecentlyUsedBeyondTheByteCap)
{
    fs::path dir = freshDir("evict");
    // Each entry is key + '\n' + record + '\n' = 2+1+28+1 = 32
    // bytes; a 70-byte cap holds two entries, not three.
    const std::string record(28, 'r');
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 70, &error)) << error;

    store.put("k1", record);
    store.put("k2", record);
    EXPECT_EQ(store.entryCount(), 2u);
    EXPECT_EQ(store.evictions(), 0u);

    // Touch k1 so k2 becomes least recently used, then overflow.
    EXPECT_TRUE(store.get("k1").has_value());
    store.put("k3", record);

    EXPECT_EQ(store.evictions(), 1u);
    EXPECT_EQ(store.entryCount(), 2u);
    EXPECT_FALSE(store.get("k2").has_value());
    EXPECT_TRUE(store.get("k1").has_value());
    EXPECT_TRUE(store.get("k3").has_value());
    fs::remove_all(dir);
}

TEST(ResultStore, NeverEvictsTheEntryJustInserted)
{
    fs::path dir = freshDir("keep_newest");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 16, &error)) << error;

    // One entry alone exceeds the cap; it must survive anyway.
    store.put("big", std::string(64, 'x'));
    EXPECT_EQ(store.entryCount(), 1u);
    EXPECT_TRUE(store.get("big").has_value());
    fs::remove_all(dir);
}

TEST(ResultStore, DropsCorruptedEntriesAndHealsByReinsertion)
{
    fs::path dir = freshDir("corrupt");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;

    store.put("key-c", "{\"run\":\"c\"}");

    // Tamper: rewrite the object so its key line no longer matches.
    fs::path object = dir / "objects" / contentHash("key-c");
    {
        std::ofstream os(object, std::ios::binary | std::ios::trunc);
        os << "some-other-key\n{\"run\":\"evil\"}\n";
    }

    EXPECT_FALSE(store.get("key-c").has_value());
    EXPECT_EQ(store.corruptDropped(), 1u);
    EXPECT_EQ(store.entryCount(), 0u);
    EXPECT_FALSE(fs::exists(object));

    store.put("key-c", "{\"run\":\"c\"}");
    std::optional<std::string> got = store.get("key-c");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"c\"}");
    fs::remove_all(dir);
}

TEST(ResultStore, ReopenRecoversEntriesFromDisk)
{
    fs::path dir = freshDir("reopen");
    std::string error;
    {
        ResultStore store;
        ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error))
            << error;
        store.put("key-a", "{\"run\":\"a\"}");
        store.put("key-b", "{\"run\":\"b\"}");
    }

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(dir.string(), 1 << 20, &error)) << error;
    EXPECT_EQ(reopened.entryCount(), 2u);
    std::optional<std::string> got = reopened.get("key-a");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"a\"}");

    // Even without the index (recency hints), objects are adopted.
    fs::remove(dir / "index");
    ResultStore adopted;
    ASSERT_TRUE(adopted.open(dir.string(), 1 << 20, &error)) << error;
    EXPECT_EQ(adopted.entryCount(), 2u);
    got = adopted.get("key-b");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"b\"}");
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------

TEST(JobQueue, RunsAJobThroughTheStateMachine)
{
    JobQueue queue(nullptr, 2);
    std::string error;
    SweepMatrix m = tinyMatrix();
    std::uint64_t id = queue.submit(m, "smoke", &error);
    ASSERT_NE(id, 0u) << error;

    JobStatus status = awaitTerminal(queue, id);
    EXPECT_EQ(status.state, JobState::Done);
    EXPECT_EQ(status.runsTotal, 2u);
    EXPECT_EQ(status.runsCompleted, 2u);
    EXPECT_EQ(status.runsExecuted, 2u);
    EXPECT_EQ(status.runsFromCache, 0u);
    EXPECT_EQ(status.label, "smoke");
    EXPECT_GE(status.submittedMs, 0);
    EXPECT_GE(status.startedMs, status.submittedMs);
    EXPECT_GE(status.finishedMs, status.startedMs);
    EXPECT_EQ(queue.jobsCompleted(), 1u);

    // Streamed lines are the offline sweep's bytes, matrix order.
    std::vector<std::string> lines;
    EXPECT_TRUE(queue.streamResults(id, [&](const std::string &line) {
        lines.push_back(line);
        return true;
    }));
    std::vector<RunResult> offline = runSweep(m, 1);
    ASSERT_EQ(lines.size(), offline.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i], offline[i].toJson()) << "run " << i;

    EXPECT_EQ(queue.list().size(), 1u);
    EXPECT_FALSE(queue.status(id + 1).has_value());
    EXPECT_FALSE(queue.streamResults(id + 1,
                                     [](const std::string &) {
                                         return true;
                                     }));
}

TEST(JobQueue, RejectsInvalidSubmissions)
{
    JobQueue queue(nullptr, 1);
    std::string error;

    SweepMatrix no_apps = tinyMatrix();
    no_apps.apps.clear();
    EXPECT_EQ(queue.submit(no_apps, "", &error), 0u);
    EXPECT_FALSE(error.empty());

    SweepMatrix unknown = tinyMatrix();
    unknown.apps = {"no-such-app"};
    error.clear();
    EXPECT_EQ(queue.submit(unknown, "", &error), 0u);
    EXPECT_NE(error.find("no-such-app"), std::string::npos) << error;

    EXPECT_EQ(queue.jobsSubmitted(), 0u);
}

TEST(JobQueue, CancelsQueuedJobsBeforeTheyStart)
{
    // One dispatcher, one worker: the second job stays queued while
    // the first (deliberately long) one runs.
    JobQueue queue(nullptr, 1);
    std::string error;
    SweepMatrix slow = tinyMatrix();
    slow.seeds = {1, 2, 3, 4};
    slow.base.accessesPerVcpu = 30000;
    slow.base.warmupAccessesPerVcpu = 1000;
    std::uint64_t first = queue.submit(slow, "long", &error);
    ASSERT_NE(first, 0u) << error;
    std::uint64_t second = queue.submit(tinyMatrix(), "victim", &error);
    ASSERT_NE(second, 0u) << error;

    EXPECT_TRUE(queue.cancel(second));
    std::optional<JobStatus> status = queue.status(second);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Cancelled);
    EXPECT_EQ(status->runsCompleted, 0u);
    EXPECT_EQ(status->startedMs, -1);

    // Terminal jobs cannot be cancelled again; unknown ids never.
    EXPECT_FALSE(queue.cancel(second));
    EXPECT_FALSE(queue.cancel(second + 100));

    EXPECT_TRUE(queue.cancel(first));
    JobStatus done = awaitTerminal(queue, first);
    EXPECT_EQ(done.state, JobState::Cancelled);
    EXPECT_EQ(queue.jobsCancelled(), 2u);
}

TEST(JobQueue, CancelMidSweepKeepsFinishedRunsAndSkipsTheRest)
{
    JobQueue queue(nullptr, 1);
    std::string error;
    SweepMatrix m = tinyMatrix();
    m.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    m.base.accessesPerVcpu = 30000;
    m.base.warmupAccessesPerVcpu = 1000;
    std::uint64_t id = queue.submit(m, "", &error);
    ASSERT_NE(id, 0u) << error;

    // Wait for the first run to land, then cancel: in-flight runs
    // finish, undispatched ones never start.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(120);
    for (;;) {
        std::optional<JobStatus> status = queue.status(id);
        ASSERT_TRUE(status.has_value());
        if (status->runsCompleted >= 1)
            break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "first run never completed";
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(queue.cancel(id));

    JobStatus status = awaitTerminal(queue, id);
    EXPECT_EQ(status.state, JobState::Cancelled);
    EXPECT_TRUE(status.cancelRequested);
    EXPECT_GE(status.runsCompleted, 1u);
    EXPECT_LT(status.runsCompleted, status.runsTotal);

    // The stream yields exactly the finished runs, then ends.
    std::size_t streamed = 0;
    EXPECT_TRUE(queue.streamResults(id, [&](const std::string &) {
        ++streamed;
        return true;
    }));
    EXPECT_EQ(streamed, status.runsCompleted);
}

TEST(JobQueue, ResubmissionIsServedEntirelyFromTheCache)
{
    fs::path dir = freshDir("queue_cache");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;

    JobQueue queue(&store, 2);
    SweepMatrix m = tinyMatrix();
    std::uint64_t first = queue.submit(m, "", &error);
    ASSERT_NE(first, 0u) << error;
    JobStatus cold = awaitTerminal(queue, first);
    EXPECT_EQ(cold.state, JobState::Done);
    EXPECT_EQ(cold.runsExecuted, 2u);
    EXPECT_EQ(cold.runsFromCache, 0u);

    std::uint64_t second = queue.submit(m, "", &error);
    ASSERT_NE(second, 0u) << error;
    JobStatus warm = awaitTerminal(queue, second);
    EXPECT_EQ(warm.state, JobState::Done);
    EXPECT_EQ(warm.runsExecuted, 0u);
    EXPECT_EQ(warm.runsFromCache, 2u);
    EXPECT_GE(store.hits(), 2u);

    // Cached bytes are the executed bytes.
    std::vector<std::string> first_lines, second_lines;
    queue.streamResults(first, [&](const std::string &line) {
        first_lines.push_back(line);
        return true;
    });
    queue.streamResults(second, [&](const std::string &line) {
        second_lines.push_back(line);
        return true;
    });
    EXPECT_EQ(first_lines, second_lines);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// End-to-end over HTTP
// ---------------------------------------------------------------

TEST(JobApi, StreamedResultsAreByteIdenticalToOfflineSweep)
{
    // The ISSUE acceptance criterion: a 16-run matrix submitted
    // over HTTP streams exactly the bytes offline vsnoopsweep
    // produces, and resubmission executes zero new runs.
    SweepMatrix m = tinyMatrix();
    m.apps = {"ferret", "blackscholes"};
    m.policies = {PolicyKind::TokenB, PolicyKind::VirtualSnoop};
    m.relocations = {RelocationMode::Base, RelocationMode::Counter};
    m.seeds = {1, 2};
    m.base.accessesPerVcpu = 200;
    m.base.warmupAccessesPerVcpu = 50;
    ASSERT_EQ(m.runCount(), 16u);

    std::string offline;
    for (const RunResult &r : runSweep(m, 4))
        offline += r.toJson() + "\n";

    fs::path dir = freshDir("e2e");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;
    JobQueue queue(&store, 2);
    StatsServer server;
    registerJobRoutes(server, queue);
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    auto submit_and_fetch = [&](std::uint64_t *cached,
                                std::uint64_t *executed) {
        std::optional<HttpReply> reply = httpRequest(
            server.address(), "POST", "/jobs",
            writeSweepRequestJson(m, "e2e"), "application/json",
            &error);
        EXPECT_TRUE(reply.has_value()) << error;
        if (!reply)
            return std::string();
        EXPECT_EQ(reply->status, 200) << reply->body;
        std::optional<JsonValue> accepted = parseJson(reply->body);
        EXPECT_TRUE(accepted.has_value());
        if (!accepted)
            return std::string();
        EXPECT_EQ(accepted->numberAt("runs_total"), 16.0);
        std::string id = std::to_string(
            static_cast<std::uint64_t>(accepted->numberAt("job")));

        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(120);
        for (;;) {
            std::optional<std::string> body =
                httpGet(server.address(), "/jobs/" + id, &error);
            EXPECT_TRUE(body.has_value()) << error;
            if (!body)
                return std::string();
            std::optional<JsonValue> status = parseJson(*body);
            EXPECT_TRUE(status.has_value());
            if (!status)
                return std::string();
            std::string state = status->stringAt("state");
            if (state == "done") {
                *cached = static_cast<std::uint64_t>(
                    status->numberAt("runs_from_cache"));
                *executed = static_cast<std::uint64_t>(
                    status->numberAt("runs_executed"));
                break;
            }
            EXPECT_NE(state, "failed") << *body;
            EXPECT_NE(state, "cancelled") << *body;
            if (std::chrono::steady_clock::now() > deadline) {
                ADD_FAILURE() << "job " << id << " never finished";
                return std::string();
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        std::optional<std::string> results = httpGet(
            server.address(), "/jobs/" + id + "/results", &error);
        EXPECT_TRUE(results.has_value()) << error;
        return results ? *results : std::string();
    };

    std::uint64_t cached = 0, executed = 0;
    std::string first = submit_and_fetch(&cached, &executed);
    EXPECT_EQ(first, offline);
    EXPECT_EQ(executed, 16u);
    EXPECT_EQ(cached, 0u);

    std::string second = submit_and_fetch(&cached, &executed);
    EXPECT_EQ(second, offline);
    EXPECT_EQ(executed, 0u);
    EXPECT_EQ(cached, 16u);

    queue.shutdown();
    server.stop();
    fs::remove_all(dir);
}

TEST(JobApi, RejectsMalformedSubmissionsWithActionableErrors)
{
    JobQueue queue(nullptr, 1);
    StatsServer server;
    registerJobRoutes(server, queue);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::optional<HttpReply> reply = httpRequest(
        server.address(), "POST", "/jobs", "not json",
        "application/json", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 400);
    EXPECT_NE(reply->body.find("invalid JSON"), std::string::npos)
        << reply->body;

    reply = httpRequest(server.address(), "POST", "/jobs",
                        "{\"apps\":[\"ferret\"],"
                        "\"config\":{\"acceses\":1}}",
                        "application/json", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 400);
    EXPECT_NE(reply->body.find("acceses"), std::string::npos)
        << reply->body;

    // A machine beyond CoreSet's 64 cores is a 400, not an abort.
    reply = httpRequest(server.address(), "POST", "/jobs",
                        "{\"apps\":[\"ferret\"],\"config\":"
                        "{\"mesh_width\":9,\"mesh_height\":8,"
                        "\"vms\":1,\"vcpus_per_vm\":1}}",
                        "application/json", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 400);
    EXPECT_NE(reply->body.find("72 cores"), std::string::npos)
        << reply->body;

    reply = httpRequest(server.address(), "GET", "/jobs/999", "", "",
                        &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 404);

    queue.shutdown();
    server.stop();
}

// ---------------------------------------------------------------
// Observability: age GC, lifecycle spans, request-id threading
// ---------------------------------------------------------------

TEST(ResultStore, AgeGcEvictsOldObjectsAndCountsThem)
{
    fs::path dir = freshDir("age_gc");
    ResultStore store;
    store.setMaxAge(3600);
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;

    store.put("fresh", "{\"run\":\"f\"}");
    store.put("stale", "{\"run\":\"s\"}");
    // Nothing is over an hour old yet.
    EXPECT_EQ(store.evictExpired(), 0u);

    // Backdate the stale object two hours.
    fs::path object = dir / "objects" / contentHash("stale");
    fs::last_write_time(object, fs::last_write_time(object) -
                                    std::chrono::hours(2));

    EXPECT_EQ(store.evictExpired(), 1u);
    EXPECT_EQ(store.expired(), 1u);
    EXPECT_EQ(store.entryCount(), 1u);
    EXPECT_FALSE(store.get("stale").has_value());
    EXPECT_TRUE(store.get("fresh").has_value());
    EXPECT_FALSE(fs::exists(object));

    // open() applies the cutoff too: backdate the survivor and
    // reopen — the entry must not be adopted.
    fs::path fresh_object = dir / "objects" / contentHash("fresh");
    fs::last_write_time(fresh_object,
                        fs::last_write_time(fresh_object) -
                            std::chrono::hours(2));
    ResultStore reopened;
    reopened.setMaxAge(3600);
    ASSERT_TRUE(reopened.open(dir.string(), 1 << 20, &error))
        << error;
    EXPECT_EQ(reopened.entryCount(), 0u);
    EXPECT_EQ(reopened.expired(), 1u);

    // maxAge 0 (the default) disables age GC entirely.
    ResultStore unaged;
    ASSERT_TRUE(unaged.open(dir.string(), 1 << 20, &error)) << error;
    EXPECT_EQ(unaged.evictExpired(), 0u);
    fs::remove_all(dir);
}

TEST(JobQueue, LifecycleSpansTileSubmitToDone)
{
    JobTraceRecorder trace;
    JobQueue queue(nullptr, 2, &trace);
    std::string error;
    std::uint64_t id =
        queue.submit(tinyMatrix(), "spans", &error, "span-req-1");
    ASSERT_NE(id, 0u) << error;
    JobStatus status = awaitTerminal(queue, id);
    EXPECT_EQ(status.state, JobState::Done);
    EXPECT_EQ(status.requestId, "span-req-1");

    const JobSpan *queue_wait = nullptr;
    const JobSpan *execute = nullptr;
    std::size_t runs = 0;
    std::vector<JobSpan> spans = trace.spans();
    for (const JobSpan &span : spans) {
        if (span.job != id)
            continue;
        EXPECT_EQ(span.requestId, "span-req-1") << span.name;
        if (span.name == "queue-wait")
            queue_wait = &span;
        else if (span.name == "execute")
            execute = &span;
        else if (span.name == "run") {
            ++runs;
            EXPECT_GE(span.slot, 0);
        }
    }
    ASSERT_NE(queue_wait, nullptr);
    ASSERT_NE(execute, nullptr);
    EXPECT_EQ(runs, 2u);

    // The two job-level spans tile [submitted, finished] exactly,
    // so their durations sum to the job's submit-to-done latency.
    EXPECT_EQ(queue_wait->beginMs, status.submittedMs);
    EXPECT_EQ(queue_wait->endMs, status.startedMs);
    EXPECT_EQ(execute->beginMs, status.startedMs);
    EXPECT_EQ(execute->endMs, status.finishedMs);
    EXPECT_EQ((queue_wait->endMs - queue_wait->beginMs) +
                  (execute->endMs - execute->beginMs),
              status.finishedMs - status.submittedMs);

    // Every uncached slot left a cache-miss instant.
    std::size_t misses = 0;
    for (const JobInstant &instant : trace.instants())
        if (instant.job == id && instant.name == "cache-miss")
            ++misses;
    EXPECT_EQ(misses, 2u);

    // The Chrome-trace export is one JSON document with an event
    // per span/instant plus per-track metadata.
    std::ostringstream out;
    trace.writeChromeTrace(out);
    std::optional<JsonValue> doc = parseJson(out.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GE(events->items().size(),
              spans.size() + trace.instants().size());
}

TEST(JobQueue, QueueWaitHistogramReconcilesWithSubmissions)
{
    MetricsRegistry registry;
    JobQueue queue(nullptr, 2);
    queue.registerMetrics(registry);
    registry.freeze();

    std::string error;
    std::uint64_t first =
        queue.submit(tinyMatrix(), "one", &error);
    ASSERT_NE(first, 0u) << error;
    awaitTerminal(queue, first);
    std::uint64_t second =
        queue.submit(tinyMatrix(), "two", &error);
    ASSERT_NE(second, 0u) << error;
    awaitTerminal(queue, second);

    queue.stageMetrics(registry);
    registry.publish();
    std::string text = registry.renderPrometheus();
    // Every submitted job left Queued exactly once, and every
    // executed run was timed: the histogram counts reconcile with
    // the job counters.
    EXPECT_NE(text.find("vsnoop_job_queue_wait_ms_count 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_job_run_execute_ms_count 4\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_jobs_submitted_total 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_job_runs_executed_total 4\n"),
              std::string::npos)
        << text;
}

TEST(JobApi, RequestIdsThreadFromSubmissionToStatus)
{
    JobQueue queue(nullptr, 2);
    StatsServer server;
    registerJobRoutes(server, queue);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::string body =
        writeSweepRequestJson(tinyMatrix(), "rid-e2e");
    std::optional<HttpReply> reply =
        httpRequest(server.address(), "POST", "/jobs", body,
                    "application/json", &error, 5000, "client-rid-7");
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_EQ(reply->status, 200) << reply->body;
    // Echoed on the wire and in the acceptance body.
    EXPECT_EQ(reply->requestId, "client-rid-7");
    std::optional<JsonValue> accepted = parseJson(reply->body);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->stringAt("request_id"), "client-rid-7");
    std::uint64_t id =
        static_cast<std::uint64_t>(accepted->numberAt("job"));

    // The id sticks to the job for its whole life: the status JSON
    // reports the submitting request's id on every later poll.
    awaitTerminal(queue, id);
    reply = httpRequest(server.address(), "GET",
                        "/jobs/" + std::to_string(id), "", "",
                        &error);
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_EQ(reply->status, 200);
    std::optional<JsonValue> status = parseJson(reply->body);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->stringAt("request_id"), "client-rid-7");
    // The poll itself got its own server-generated id.
    EXPECT_FALSE(reply->requestId.empty());
    EXPECT_NE(reply->requestId, "client-rid-7");

    // The submission left a correlatable structured log record.
    bool logged = false;
    for (const LogRecord &r : slog().tail())
        if (r.json.find("\"msg\":\"job_submitted\"") !=
                std::string::npos &&
            r.json.find("\"request_id\":\"client-rid-7\"") !=
                std::string::npos)
            logged = true;
    EXPECT_TRUE(logged);

    queue.shutdown();
    server.stop();
}

} // namespace
} // namespace vsnoop::test
