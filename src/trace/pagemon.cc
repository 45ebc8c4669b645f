#include "trace/pagemon.hh"

#include <algorithm>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace vsnoop
{

namespace
{

TraceEventKind
traceKindFor(PageEventKind kind)
{
    switch (kind) {
      case PageEventKind::Map: return TraceEventKind::PageMap;
      case PageEventKind::Unmap: return TraceEventKind::PageUnmap;
      case PageEventKind::TypeChange:
        return TraceEventKind::PageTypeChange;
      case PageEventKind::CowBreak: return TraceEventKind::PageCow;
      case PageEventKind::Remap: return TraceEventKind::PageRemap;
    }
    vsnoop_panic("unknown PageEventKind ", static_cast<int>(kind));
}

} // namespace

PageMon::PageMon(std::uint32_t num_vms, std::uint32_t top_k)
    : vmRows_(num_vms + 1), topK_(top_k)
{
    vsnoop_assert(topK_ >= 1, "pagemon top-K must be positive");
    // Steady state holds exactly topK_ cells; reserving double keeps
    // the probe chains short and avoids rehash churn at the cap.
    cells_.reserve(static_cast<std::size_t>(topK_) * 2);
}

PageCell &
PageMon::cellFor(std::uint64_t page)
{
    if (PageCell *cell = cells_.find(page))
        return *cell;
    if (cells_.size() >= topK_) {
        // Evict-to-remainder: fold the coldest cell's entire mass
        // into the truncated aggregate so the lookup-sum identity
        // survives the eviction exactly.  Deterministic tie-break:
        // fewest lookups, then the highest page number goes.
        bool have = false;
        std::uint64_t victim = 0;
        std::uint64_t victim_lookups = 0;
        cells_.forEach([&](std::uint64_t p, const PageCell &c) {
            if (!have || c.lookups < victim_lookups ||
                (c.lookups == victim_lookups && p > victim)) {
                have = true;
                victim = p;
                victim_lookups = c.lookups;
            }
        });
        truncatedLookups.inc(victim_lookups);
        truncatedPages_++;
        cells_.erase(victim);
    }
    PageCell &cell = cells_.getOrInsert(page);
    cell.pageNum = page;
    cell.byVm.assign(vmRows_, 0);
    return cell;
}

void
PageMon::miss(HostAddr addr, VmId requester)
{
    PageCell &cell = cellFor(addr.pageNum());
    cell.lookups++;
    cell.misses++;
    cell.byVm[requester < vmRows_ - 1 ? requester : vmRows_ - 1]++;
    lookupsCharged.inc();
}

void
PageMon::snoopBroadcast(HostAddr line, VmId requester, CoreSet targets)
{
    if (targets.empty())
        return;
    std::uint64_t n = targets.count();
    PageCell &cell = cellFor(line.pageNum());
    cell.lookups += n;
    cell.byVm[requester < vmRows_ - 1 ? requester : vmRows_ - 1] += n;
    lookupsCharged.inc(n);
    // The requester's own cores: its VM's set, or the idle cores
    // (those in no VM's set) for a hypervisor requester.
    std::uint64_t own = 0;
    if (requester == kInvalidVm) {
        std::uint64_t placed = 0;
        if (vmCores_ != nullptr) {
            for (CoreSet cores : *vmCores_)
                placed |= cores.mask();
        }
        own = ~placed;
    } else if (vmCores_ != nullptr && requester < vmCores_->size()) {
        own = (*vmCores_)[requester].mask();
    }
    std::uint64_t cross = n - CoreSet::fromMask(targets.mask() & own).count();
    if (cross != 0) {
        cell.crossVm += cross;
        crossVmLookups.inc(cross);
    }
}

void
PageMon::filterReasonCharge(HostAddr line, FilterReason reason)
{
    cellFor(line.pageNum())
        .byReason[static_cast<std::size_t>(reason)]++;
}

void
PageMon::policyDecision(HostAddr line, bool filtered)
{
    PageCell &cell = cellFor(line.pageNum());
    if (filtered)
        cell.filtered++;
    else
        cell.broadcast++;
}

void
PageMon::onPageEvent(const PageEvent &event)
{
    eventsByKind[static_cast<std::size_t>(event.kind)].inc();
    // Census on tracked cells only: the event stream updates sharing
    // info for pages already hot enough to hold a cell, without
    // letting cold pages grow the bounded table.
    if (PageCell *cell = cells_.find(event.hostPage)) {
        if (event.vm != kInvalidVm && event.vm < 32)
            cell->sharerMask |= 1u << event.vm;
        cell->lastType = event.type;
    }
    if (trace_ != nullptr) {
        TraceRecord r;
        r.tick = clock_ != nullptr ? clock_->now() : 0;
        r.kind = traceKindFor(event.kind);
        r.vm = event.vm;
        r.line = event.hostPage << (kPageShift - kLineShift);
        r.value = event.guestPage;
        r.targets = event.prevHostPage;
        r.pageType = event.type;
        r.tokens = static_cast<std::uint32_t>(event.prevType);
        trace_->record(r);
    }
}

void
PageMon::addWatch(std::uint64_t host_page)
{
    if (std::find(watchPages_.begin(), watchPages_.end(), host_page) ==
        watchPages_.end()) {
        watchPages_.push_back(host_page);
    }
}

bool
PageMon::watches(HostAddr addr) const
{
    // Watch sets are a handful of pages; a linear scan beats any
    // hashed structure on the per-record path.
    std::uint64_t page = addr.pageNum();
    return std::find(watchPages_.begin(), watchPages_.end(), page) !=
           watchPages_.end();
}

void
PageMon::resetStats()
{
    cells_ = FlatMap<PageCell>{};
    cells_.reserve(static_cast<std::size_t>(topK_) * 2);
    truncatedPages_ = 0;
    lookupsCharged.reset();
    crossVmLookups.reset();
    truncatedLookups.reset();
    for (auto &counter : eventsByKind)
        counter.reset();
}

PagesSnapshot
PageMon::snapshot() const
{
    PagesSnapshot s;
    s.enabled = true;
    s.topK = topK_;
    s.vmRows = vmRows_;
    s.cells.reserve(cells_.size());
    cells_.forEach([&s](std::uint64_t, const PageCell &cell) {
        s.cells.push_back(cell);
    });
    // Hottest first; page number breaks ties so the order (and the
    // JSON bytes downstream) never depends on table iteration order.
    std::sort(s.cells.begin(), s.cells.end(),
              [](const PageCell &a, const PageCell &b) {
                  if (a.lookups != b.lookups)
                      return a.lookups > b.lookups;
                  return a.pageNum < b.pageNum;
              });
    s.truncatedLookups = truncatedLookups.value();
    s.truncatedPages = truncatedPages_;
    s.totalLookups = lookupsCharged.value();
    std::uint64_t tracked = 0;
    for (const PageCell &cell : s.cells)
        tracked += cell.lookups;
    vsnoop_assert(tracked + s.truncatedLookups == s.totalLookups,
                  "pagemon mass leak: tracked ", tracked,
                  " + truncated ", s.truncatedLookups, " != charged ",
                  s.totalLookups);
    s.mapEvents =
        eventsByKind[static_cast<std::size_t>(PageEventKind::Map)]
            .value();
    s.unmapEvents =
        eventsByKind[static_cast<std::size_t>(PageEventKind::Unmap)]
            .value();
    s.typeChanges =
        eventsByKind[static_cast<std::size_t>(PageEventKind::TypeChange)]
            .value();
    s.cowBreaks =
        eventsByKind[static_cast<std::size_t>(PageEventKind::CowBreak)]
            .value();
    s.remaps =
        eventsByKind[static_cast<std::size_t>(PageEventKind::Remap)]
            .value();
    return s;
}

void
PagesExport::registerMetrics(MetricsRegistry &registry)
{
    runsId_ = registry.addCounter(
        "vsnoop_pages_runs_total",
        "Runs whose pagemon snapshot was aggregated.");
    lookupsId_ = registry.addCounter(
        "vsnoop_pages_lookups_total",
        "Snoop lookups charged to pages across finished runs.");
    truncatedId_ = registry.addCounter(
        "vsnoop_pages_truncated_lookups_total",
        "Lookups folded into the top-K truncated remainder.");
    crossVmId_ = registry.addCounter(
        "vsnoop_pages_cross_vm_lookups_total",
        "Snoop deliveries landing outside the requester's VM.");
    cowBreaksId_ = registry.addCounter(
        "vsnoop_pages_cow_breaks_total",
        "Copy-on-write breaks observed by pagemon.");
    remapsId_ = registry.addCounter(
        "vsnoop_pages_remaps_total",
        "Content-scan relocation remaps observed by pagemon.");
    typeChangesId_ = registry.addCounter(
        "vsnoop_pages_type_changes_total",
        "Sharing-type transitions observed by pagemon.");
    mapEventsId_ = registry.addCounter(
        "vsnoop_pages_map_events_total",
        "Page map events observed by pagemon.");
    hottestId_ = registry.addGauge(
        "vsnoop_pages_hottest_lookups",
        "Max over runs of the hottest page's snoop lookups.");
    metricsRegistered_ = true;
}

void
PagesExport::add(const PagesSnapshot &pages)
{
    std::lock_guard<std::mutex> lock(mutex_);
    runs_++;
    lookups_ += pages.totalLookups;
    truncatedLookups_ += pages.truncatedLookups;
    for (const PageCell &cell : pages.cells)
        crossVm_ += cell.crossVm;
    cowBreaks_ += pages.cowBreaks;
    remaps_ += pages.remaps;
    typeChanges_ += pages.typeChanges;
    mapEvents_ += pages.mapEvents;
    if (!pages.cells.empty())
        hottestLookups_ =
            std::max(hottestLookups_, pages.cells.front().lookups);
}

std::uint64_t
PagesExport::runs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return runs_;
}

void
PagesExport::stageMetrics(MetricsRegistry &registry) const
{
    vsnoop_assert(metricsRegistered_,
                  "stageMetrics() before registerMetrics()");
    std::uint64_t runs, lookups, truncated, cross_vm, cow_breaks;
    std::uint64_t remaps, type_changes, map_events, hottest;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        runs = runs_;
        lookups = lookups_;
        truncated = truncatedLookups_;
        cross_vm = crossVm_;
        cow_breaks = cowBreaks_;
        remaps = remaps_;
        type_changes = typeChanges_;
        map_events = mapEvents_;
        hottest = hottestLookups_;
    }
    registry.set(runsId_, static_cast<double>(runs));
    registry.set(lookupsId_, static_cast<double>(lookups));
    registry.set(truncatedId_, static_cast<double>(truncated));
    registry.set(crossVmId_, static_cast<double>(cross_vm));
    registry.set(cowBreaksId_, static_cast<double>(cow_breaks));
    registry.set(remapsId_, static_cast<double>(remaps));
    registry.set(typeChangesId_, static_cast<double>(type_changes));
    registry.set(mapEventsId_, static_cast<double>(map_events));
    registry.set(hottestId_, static_cast<double>(hottest));
}

} // namespace vsnoop
