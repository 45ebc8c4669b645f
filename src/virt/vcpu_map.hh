/**
 * @file
 * The vCPU-to-physical-core mapping and its change notifications.
 *
 * The hypervisor scheduler mutates this mapping; the virtual
 * snooping hardware (vCPU map registers, src/core/) listens for
 * placement changes to keep per-VM snoop domains synchronized, the
 * way the paper's hypervisor updates vCPU map registers before
 * transferring control to a VM (Section IV-A).
 */

#ifndef VSNOOP_VIRT_VCPU_MAP_HH_
#define VSNOOP_VIRT_VCPU_MAP_HH_

#include <cstdint>
#include <vector>

#include "sim/core_set.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "virt/sched_sim.hh"

namespace vsnoop
{

/**
 * Observer of vCPU placement changes.
 */
class VcpuMappingListener
{
  public:
    virtual ~VcpuMappingListener() = default;

    /** @p vcpu of @p vm begins running on @p core. */
    virtual void onVcpuPlaced(VCpuId vcpu, VmId vm, CoreId core) = 0;

    /** @p vcpu of @p vm stops running on @p core. */
    virtual void onVcpuRemoved(VCpuId vcpu, VmId vm, CoreId core) = 0;
};

/**
 * Bidirectional vCPU/core mapping.
 */
class VcpuMapping
{
  public:
    explicit VcpuMapping(std::uint32_t num_cores);

    /** Register a vCPU belonging to @p vm; initially unplaced. */
    VCpuId addVcpu(VmId vm);

    std::uint32_t numVcpus() const {
        return static_cast<std::uint32_t>(vmOf_.size());
    }
    std::uint32_t numCores() const {
        return static_cast<std::uint32_t>(vcpuAt_.size());
    }

    /** Place @p vcpu on @p core; the core must be free. */
    void place(VCpuId vcpu, CoreId core);

    /** Remove @p vcpu from its current core (no-op if unplaced). */
    void removeFromCore(VCpuId vcpu);

    /** Exchange the cores of two placed vCPUs. */
    void swap(VCpuId a, VCpuId b);

    /** Core currently running @p vcpu (kInvalidCore if unplaced). */
    CoreId coreOf(VCpuId vcpu) const;

    /** vCPU currently on @p core (kInvalidVCpu if idle). */
    VCpuId vcpuAt(CoreId core) const;

    /** Owning VM of @p vcpu. */
    VmId vmOf(VCpuId vcpu) const;

    /** VM currently running on @p core (kInvalidVm if idle). */
    VmId vmAt(CoreId core) const;

    /** Cores currently running any vCPU of @p vm (O(1); empty for
     *  a VM with no vCPU, and for kInvalidVm). */
    CoreSet
    coresRunning(VmId vm) const
    {
        return vm < vmCores_.size() ? vmCores_[vm] : CoreSet{};
    }

    /**
     * The cores running each VM, indexed by VmId up to the highest
     * VM with a vCPU, kept in sync by place() and removeFromCore().
     * The sets are disjoint; a core in none of them is idle.  The
     * vector object is stable for the mapping's lifetime, so the
     * accounting layers hold a pointer to it and charge a whole
     * snoop broadcast with one AND and popcount per VM
     * (CritPathAccountant::snoopBroadcast, PageMon::snoopBroadcast).
     */
    const std::vector<CoreSet> &vmCoreSets() const { return vmCores_; }

    /** Attach a placement listener (not owned). */
    void addListener(VcpuMappingListener *listener);

  private:
    std::vector<VmId> vmOf_;
    std::vector<CoreId> coreOf_;
    std::vector<VCpuId> vcpuAt_;
    /** Cached vmOf_[vcpuAt_[core]] (kInvalidVm for idle cores). */
    std::vector<VmId> vmAtCore_;
    /** The inverse of vmAtCore_: the cores of each VM. */
    std::vector<CoreSet> vmCores_;
    std::vector<VcpuMappingListener *> listeners_;
};

/**
 * Periodic random vCPU shuffler: the paper's approximation of
 * scheduler-driven VM relocation (Section V-C).  Every period, two
 * vCPUs from different VMs are selected at random and their
 * physical cores are exchanged.
 */
class ShuffleMigrator : public Event
{
  public:
    /**
     * @param eq Event queue.
     * @param mapping The mapping to shuffle.
     * @param period Ticks between shuffles.
     * @param seed RNG seed (shuffles are deterministic per seed).
     */
    ShuffleMigrator(EventQueue &eq, VcpuMapping &mapping, Tick period,
                    std::uint64_t seed);

    /** Begin shuffling (first shuffle one period from now). */
    void start();

    /** Stop shuffling. */
    void stop();

    void process() override;

    /** Shuffles performed. */
    Counter migrations;

  private:
    EventQueue &eq_;
    VcpuMapping &mapping_;
    Tick period_;
    Rng rng_;
};

/**
 * Replays a credit-scheduler placement trace onto a VcpuMapping —
 * the scheduler/coherence coupling the paper leaves as future work
 * ("it will be necessary to make hypervisors aware of the migration
 * costs", Section VIII).  Instead of the random shuffles of
 * Section V-C, the snoop-filtering simulation sees the placement
 * decisions a real credit scheduler made, including idle gaps where
 * a vCPU is descheduled entirely.
 */
class TraceMigrator : public Event
{
  public:
    /**
     * @param eq Event queue.
     * @param mapping The mapping to drive.
     * @param trace Scheduler placement trace (time-ordered).
     * @param ticks_per_ms Conversion from trace milliseconds to
     *        simulation ticks.
     */
    TraceMigrator(EventQueue &eq, VcpuMapping &mapping,
                  std::vector<PlacementEvent> trace,
                  double ticks_per_ms);

    /** Apply all t=0 events and arm the first future event. */
    void start();

    /** Stop replaying. */
    void stop();

    void process() override;

    /** True once the trace has been fully applied. */
    bool finished() const { return next_ >= trace_.size(); }

    /** Placement changes applied so far. */
    Counter placements;
    /** Placements that moved a vCPU to a different core. */
    Counter migrations;

  private:
    /** Apply due events; on trace end, re-place stranded vCPUs. */
    void applyDue(Tick now);

    /** Apply every event due at or before @p now. */
    void applyEventsDue(Tick now);

    /** Tick of trace event @p index. */
    Tick eventTick(std::size_t index) const;

    EventQueue &eq_;
    VcpuMapping &mapping_;
    std::vector<PlacementEvent> trace_;
    double ticksPerMs_;
    std::size_t next_ = 0;
    std::vector<CoreId> lastCore_;
};

} // namespace vsnoop

#endif // VSNOOP_VIRT_VCPU_MAP_HH_
