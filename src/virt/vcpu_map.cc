#include "virt/vcpu_map.hh"

#include "sim/logging.hh"

namespace vsnoop
{

VcpuMapping::VcpuMapping(std::uint32_t num_cores)
    : vcpuAt_(num_cores, kInvalidVCpu), vmAtCore_(num_cores, kInvalidVm)
{
    vsnoop_assert(num_cores >= 1, "need at least one core");
}

VCpuId
VcpuMapping::addVcpu(VmId vm)
{
    vsnoop_assert(vm != kInvalidVm, "a vCPU needs a VM");
    auto id = static_cast<VCpuId>(vmOf_.size());
    vmOf_.push_back(vm);
    if (vm >= vmCores_.size())
        vmCores_.resize(static_cast<std::size_t>(vm) + 1);
    coreOf_.push_back(kInvalidCore);
    return id;
}

void
VcpuMapping::place(VCpuId vcpu, CoreId core)
{
    vsnoop_assert(vcpu < vmOf_.size(), "bad vCPU id ", vcpu);
    vsnoop_assert(core < vcpuAt_.size(), "bad core id ", core);
    vsnoop_assert(coreOf_[vcpu] == kInvalidCore,
                  "vCPU ", vcpu, " is already placed");
    vsnoop_assert(vcpuAt_[core] == kInvalidVCpu,
                  "core ", core, " is occupied");
    coreOf_[vcpu] = core;
    vcpuAt_[core] = vcpu;
    vmAtCore_[core] = vmOf_[vcpu];
    vmCores_[vmOf_[vcpu]].add(core);
    for (auto *l : listeners_)
        l->onVcpuPlaced(vcpu, vmOf_[vcpu], core);
}

void
VcpuMapping::removeFromCore(VCpuId vcpu)
{
    vsnoop_assert(vcpu < vmOf_.size(), "bad vCPU id ", vcpu);
    CoreId core = coreOf_[vcpu];
    if (core == kInvalidCore)
        return;
    coreOf_[vcpu] = kInvalidCore;
    vcpuAt_[core] = kInvalidVCpu;
    vmAtCore_[core] = kInvalidVm;
    vmCores_[vmOf_[vcpu]].remove(core);
    for (auto *l : listeners_)
        l->onVcpuRemoved(vcpu, vmOf_[vcpu], core);
}

void
VcpuMapping::swap(VCpuId a, VCpuId b)
{
    CoreId core_a = coreOf(a);
    CoreId core_b = coreOf(b);
    vsnoop_assert(core_a != kInvalidCore && core_b != kInvalidCore,
                  "swap requires both vCPUs to be placed");
    removeFromCore(a);
    removeFromCore(b);
    place(a, core_b);
    place(b, core_a);
}

CoreId
VcpuMapping::coreOf(VCpuId vcpu) const
{
    vsnoop_assert(vcpu < vmOf_.size(), "bad vCPU id ", vcpu);
    return coreOf_[vcpu];
}

VCpuId
VcpuMapping::vcpuAt(CoreId core) const
{
    vsnoop_assert(core < vcpuAt_.size(), "bad core id ", core);
    return vcpuAt_[core];
}

VmId
VcpuMapping::vmOf(VCpuId vcpu) const
{
    vsnoop_assert(vcpu < vmOf_.size(), "bad vCPU id ", vcpu);
    return vmOf_[vcpu];
}

VmId
VcpuMapping::vmAt(CoreId core) const
{
    vsnoop_assert(core < vmAtCore_.size(), "bad core id ", core);
    return vmAtCore_[core];
}

void
VcpuMapping::addListener(VcpuMappingListener *listener)
{
    listeners_.push_back(listener);
}

ShuffleMigrator::ShuffleMigrator(EventQueue &eq, VcpuMapping &mapping,
                                 Tick period, std::uint64_t seed)
    : eq_(eq), mapping_(mapping), period_(period), rng_(seed, 0x5c4d)
{
    vsnoop_assert(period >= 1, "shuffle period must be positive");
}

void
ShuffleMigrator::start()
{
    eq_.scheduleIn(*this, period_);
}

void
ShuffleMigrator::stop()
{
    eq_.deschedule(*this);
}

void
ShuffleMigrator::process()
{
    std::uint32_t n = mapping_.numVcpus();
    if (n >= 2) {
        // Draw two placed vCPUs from different VMs; bail out after
        // a bounded number of tries (e.g. only one VM is placed).
        for (int tries = 0; tries < 64; ++tries) {
            auto a = static_cast<VCpuId>(rng_.below(n));
            auto b = static_cast<VCpuId>(rng_.below(n));
            if (a == b || mapping_.vmOf(a) == mapping_.vmOf(b))
                continue;
            if (mapping_.coreOf(a) == kInvalidCore ||
                mapping_.coreOf(b) == kInvalidCore) {
                continue;
            }
            mapping_.swap(a, b);
            migrations.inc();
            break;
        }
    }
    eq_.scheduleIn(*this, period_);
}

TraceMigrator::TraceMigrator(EventQueue &eq, VcpuMapping &mapping,
                             std::vector<PlacementEvent> trace,
                             double ticks_per_ms)
    : eq_(eq), mapping_(mapping), trace_(std::move(trace)),
      ticksPerMs_(ticks_per_ms),
      lastCore_(mapping.numVcpus(), kInvalidCore)
{
    vsnoop_assert(ticks_per_ms > 0, "trace time scale must be positive");
}

Tick
TraceMigrator::eventTick(std::size_t index) const
{
    return static_cast<Tick>(trace_[index].timeMs * ticksPerMs_);
}

void
TraceMigrator::applyDue(Tick now)
{
    applyEventsDue(now);
    if (!finished())
        return;
    // End of trace: re-place any vCPU the trace left descheduled
    // (e.g. blocked at the recording's end), so the coherence run
    // can always make progress.
    for (VCpuId v = 0; v < mapping_.numVcpus(); ++v) {
        if (mapping_.coreOf(v) != kInvalidCore)
            continue;
        CoreId target = lastCore_[v];
        if (target == kInvalidCore ||
            mapping_.vcpuAt(target) != kInvalidVCpu) {
            target = kInvalidCore;
            for (CoreId c = 0; c < mapping_.numCores(); ++c) {
                if (mapping_.vcpuAt(c) == kInvalidVCpu) {
                    target = c;
                    break;
                }
            }
        }
        if (target != kInvalidCore) {
            mapping_.place(v, target);
            lastCore_[v] = target;
        }
    }
}

void
TraceMigrator::applyEventsDue(Tick now)
{
    while (next_ < trace_.size() && eventTick(next_) <= now) {
        const PlacementEvent &event = trace_[next_];
        next_++;
        if (event.vcpu >= mapping_.numVcpus())
            continue; // trace from a bigger system: ignore
        if (event.core == kInvalidCore) {
            mapping_.removeFromCore(event.vcpu);
            continue;
        }
        vsnoop_assert(event.core < mapping_.numCores(),
                      "trace core ", event.core,
                      " exceeds the mapping");
        mapping_.removeFromCore(event.vcpu);
        mapping_.place(event.vcpu, event.core);
        placements.inc();
        if (lastCore_[event.vcpu] != kInvalidCore &&
            lastCore_[event.vcpu] != event.core) {
            migrations.inc();
        }
        lastCore_[event.vcpu] = event.core;
    }
}

void
TraceMigrator::start()
{
    applyDue(eq_.now());
    if (!finished())
        eq_.schedule(*this, std::max(eq_.now() + 1, eventTick(next_)));
}

void
TraceMigrator::stop()
{
    eq_.deschedule(*this);
}

void
TraceMigrator::process()
{
    applyDue(eq_.now());
    if (!finished())
        eq_.schedule(*this, std::max(eq_.now() + 1, eventTick(next_)));
}

} // namespace vsnoop
