#include "replay.hh"

#include <algorithm>
#include <ctime>
#include <memory>

#include "coherence/policy.hh"
#include "mem/cache.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"

using namespace vsnoop;

namespace perfbench
{

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace
{

/** One generated access as the replays consume it. */
struct Replayed
{
    MemAccess access;
    CoreId requester = 0;
    std::uint32_t vcpu = 0;
    Tick gap = 1;
};

} // namespace

ReplayResult
replayLayers(const SystemConfig &config, const AppProfile &app)
{
    ReplayResult out;
    ReplayCounts &n = out.counts;
    ReplayTimes &t = out.times;

    SimSystem system(config, app);
    const std::uint32_t cores = config.numCores();
    const auto vcpus = static_cast<std::uint32_t>(system.numDrivers());
    const std::uint64_t quota =
        config.accessesPerVcpu + config.warmupAccessesPerVcpu;

    // workload: the drivers' own generators, in the round-robin
    // order the simulated vCPUs roughly interleave in.
    std::vector<Replayed> stream;
    stream.reserve(quota * vcpus);
    double t0 = threadCpuSeconds();
    for (std::uint64_t round = 0; round < quota; ++round) {
        for (std::uint32_t v = 0; v < vcpus; ++v) {
            VcpuWorkload::Step step = system.driver(v).workload().next();
            stream.push_back(Replayed{step.access,
                                      system.mapping().coreOf(v), v,
                                      step.gap});
        }
    }
    t.next = threadCpuSeconds() - t0;
    n.accesses = stream.size();
    for (std::uint32_t v = 0; v < vcpus; ++v) {
        std::uint64_t generated =
            system.driver(v).workload().totalAccesses.value();
        if (generated != quota) {
            out.problems.push_back(
                "vCPU " + std::to_string(v) + " generated " +
                std::to_string(generated) + " accesses, quota " +
                std::to_string(quota));
        }
    }

    // core: the system's own snoop-target policy (TokenB systems do
    // not expose theirs; an identical broadcast policy stands in).
    TokenBPolicy broadcast(cores);
    SnoopTargetPolicy *policy = system.vsnoopPolicy();
    if (policy == nullptr)
        policy = &broadcast;
    std::vector<CoreSet> targets(stream.size());
    t0 = threadCpuSeconds();
    for (std::size_t i = 0; i < stream.size(); ++i)
        targets[i] =
            policy->targets(stream[i].requester, stream[i].access, 1).cores;
    t.targets = threadCpuSeconds() - t0;
    for (const CoreSet &set : targets)
        n.targetSum += set.count();

    // mem: one fresh L2 per core, LRU fill on every miss.
    std::vector<std::unique_ptr<Cache>> caches;
    for (std::uint32_t c = 0; c < cores; ++c)
        caches.push_back(
            std::make_unique<Cache>(config.l2.sizeBytes, config.l2.ways));
    t0 = threadCpuSeconds();
    for (const Replayed &r : stream) {
        Cache &cache = *caches[r.requester];
        HostAddr line = r.access.addr.lineAligned();
        if (CacheLine *hit = cache.find(line)) {
            cache.touch(*hit);
            ++n.cacheHits;
            continue;
        }
        CacheLine &slot = cache.victimFor(line);
        if (slot.valid)
            cache.remove(slot);
        cache.install(slot, line, r.access.vm, r.access.pageType, 1, false,
                      r.access.isWrite);
    }
    t.cache = threadCpuSeconds() - t0;

    // noc: every requester -> target snoop on a fresh mesh.  Each
    // vCPU issues its next access one think gap after its last
    // snoop arrived, so link contention looks like a closed loop.
    Mesh mesh(config.mesh);
    Network &network = mesh;
    const std::uint32_t bytes = config.protocol.controlBytes;
    std::vector<Tick> clock(vcpus, 1);
    std::vector<Tick> issue(stream.size());
    std::vector<Tick> arrivals;
    arrivals.reserve(n.targetSum);
    std::vector<std::size_t> firstArrival(stream.size() + 1, 0);
    t0 = threadCpuSeconds();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Replayed &r = stream[i];
        Tick at = clock[r.vcpu];
        Tick last = at;
        issue[i] = at;
        targets[i].forEach([&](CoreId target) {
            SendInfo info;
            Tick arrive = network.send(r.requester, target, bytes,
                                       MsgClass::Request, at, &info);
            n.hops += info.hops;
            n.waitTicks += info.queueWait;
            arrivals.push_back(arrive);
            last = std::max(last, arrive);
        });
        firstArrival[i + 1] = arrivals.size();
        clock[r.vcpu] = last + r.gap;
    }
    t.send = threadCpuSeconds() - t0;
    n.sends = arrivals.size();
    if (n.sends != n.targetSum) {
        out.problems.push_back("mesh replay sent " + std::to_string(n.sends) +
                               " snoops, targets sum to " +
                               std::to_string(n.targetSum));
    }

    // sim: one closure per arrival.  After each round the queue
    // runs up to the earliest issue tick of the next round, which
    // no later arrival can precede, so the pending set stays the
    // size of a few rounds of deliveries.
    std::vector<Tick> drainTo(quota, kMaxTick);
    for (std::uint64_t round = 0; round + 1 < quota; ++round) {
        for (std::uint32_t v = 0; v < vcpus; ++v)
            drainTo[round] =
                std::min(drainTo[round], issue[(round + 1) * vcpus + v]);
    }
    EventQueue eq;
    std::uint64_t tickSum = 0;
    t0 = threadCpuSeconds();
    for (std::uint64_t round = 0; round < quota; ++round) {
        std::size_t begin = firstArrival[round * vcpus];
        std::size_t end = firstArrival[(round + 1) * vcpus];
        for (std::size_t k = begin; k < end; ++k) {
            Tick when = arrivals[k];
            eq.scheduleFn(when, [&tickSum, when] { tickSum += when; });
        }
        if (drainTo[round] != kMaxTick)
            eq.runUntil(drainTo[round]);
    }
    eq.run();
    t.event = threadCpuSeconds() - t0;
    n.events = eq.eventsProcessed();
    std::uint64_t expectSum = 0;
    for (Tick when : arrivals)
        expectSum += when;
    if (n.events != n.sends || tickSum != expectSum) {
        out.problems.push_back("event replay dispatched " +
                               std::to_string(n.events) + " closures for " +
                               std::to_string(n.sends) + " sends");
    }

    // virt: the content scan, on a system that skipped its own.  No
    // guest page is mapped before the first access, so the scan's
    // own return value (pages that dropped a private copy) is zero
    // here; count the guest pages it mapped onto shared copies.
    SystemConfig unscanned = config;
    unscanned.contentScan = false;
    SimSystem fresh(unscanned, app);
    Hypervisor &hv = fresh.hypervisor();
    t0 = threadCpuSeconds();
    hv.runContentScan();
    t.scan = threadCpuSeconds() - t0;
    for (VmId vm = 0; vm < config.numVms; ++vm) {
        hv.pageTable(vm).forEach(
            [&n](std::uint64_t, const PageTableEntry &entry) {
                n.pagesMerged += entry.type == PageType::RoShared;
            });
    }
    return out;
}

} // namespace perfbench
