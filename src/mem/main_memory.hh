/**
 * @file
 * Memory-side token ledger and latency model.
 *
 * In token coherence the memory is a first-class token holder: a
 * line whose tokens are nowhere cached has all of them (including
 * the owner token) at memory.  The ledger stores only lines that
 * deviate from that default, so its footprint tracks the number of
 * lines with cached copies rather than the address space.
 *
 * Each ledger entry also carries the line's holder mask: the cores
 * whose L2 holds a copy.  A cached copy holds at least one token, so
 * every cached line has an entry; the coherence system reads the
 * mask to skip snoop deliveries that cannot act (DESIGN.md §9).
 *
 * The chip has several memory controllers attached to mesh nodes;
 * lines interleave across them by line number.  The ledger itself
 * is global (one token ledger per line regardless of controller).
 */

#ifndef VSNOOP_MEM_MAIN_MEMORY_HH_
#define VSNOOP_MEM_MAIN_MEMORY_HH_

#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "sim/core_set.hh"
#include "sim/flat_table.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vsnoop
{

/**
 * Token state held at memory for one line.
 */
struct MemLineState
{
    std::uint32_t tokens = 0;
    bool owner = false;
};

/**
 * The memory system: token ledger plus access latency.
 */
class MainMemory
{
  public:
    /**
     * @param tokens_per_line Total tokens T per line (== number of
     *        cores in the paper's protocol).
     * @param num_controllers How many memory controllers share the
     *        address space.
     * @param latency DRAM access latency in ticks.
     */
    MainMemory(std::uint32_t tokens_per_line,
               std::uint32_t num_controllers, Tick latency);

    std::uint32_t tokensPerLine() const { return tokensPerLine_; }
    std::uint32_t numControllers() const { return numControllers_; }
    Tick latency() const { return latency_; }

    /** Controller index that owns @p line_addr (line interleave). */
    std::uint32_t controllerFor(HostAddr line_addr) const;

    /** Tokens currently held at memory for @p line_addr. */
    MemLineState state(HostAddr line_addr) const;

    /**
     * Take up to @p want tokens from memory for a read/write
     * request.  The owner token is surrendered only when
     * @p may_take_owner is set (reads prefer to leave ownership at
     * memory when plain tokens are available).
     *
     * @return The tokens removed and whether the owner token is
     *         among them.
     */
    MemLineState takeTokens(HostAddr line_addr, std::uint32_t want,
                            bool may_take_owner);

    /**
     * Return tokens to memory (eviction, writeback, or persistent
     * deactivation).
     *
     * @param line_addr The line.
     * @param tokens Plain token count being returned (including the
     *        owner token if @p owner).
     * @param owner True when the owner token is returned.
     */
    void returnTokens(HostAddr line_addr, std::uint32_t tokens, bool owner);

    /**
     * True when memory can supply data for a read of @p line_addr:
     * it holds the owner token (so its copy is current), or the
     * line is clean-by-construction (RO-shared pages are flushed
     * when marked, so memory data is always current for them).
     */
    bool canProvideData(HostAddr line_addr, bool line_is_ro_shared) const;

    /** Cores whose L2 holds @p line_addr (empty when uncached). */
    CoreSet holders(HostAddr line_addr) const;

    /** @{
     * Mark @p core's L2 as gaining / losing its copy of
     * @p line_addr.  The line must have tokens away from memory.
     */
    void addHolder(HostAddr line_addr, CoreId core);
    void removeHolder(HostAddr line_addr, CoreId core);
    /** @} */

    /** Number of lines whose tokens are (partially) cached. */
    std::size_t ledgerSize() const { return ledger_.size(); }

    /** Allocated ledger table slots. */
    std::size_t ledgerCapacity() const { return ledger_.capacity(); }

    /**
     * Attach an internals counter block to the token ledger
     * (sim/perfmon.hh); nullptr detaches.
     */
    void setLedgerPerf(FlatTablePerf *perf) { ledger_.setPerf(perf); }

    /**
     * Pre-size the ledger for @p lines deviating entries (the
     * system reserves aggregate L2 capacity plus headroom up front
     * so the miss path never rehashes).
     */
    void reserveLedger(std::size_t lines) { ledger_.reserve(lines); }

    /**
     * Visit the line number of every ledger entry (lines deviating
     * from the all-tokens-at-memory default), for invariant checks.
     */
    template <typename Fn>
    void
    forEachLedgerLine(Fn &&fn) const
    {
        ledger_.forEach(
            [&](std::uint64_t line_num, const LedgerEntry &) {
                fn(line_num);
            });
    }

    /** @{ Statistics. */
    Counter reads;
    Counter writebacks;
    Counter dataProvided;
    /** @} */

  private:
    struct LedgerEntry
    {
        MemLineState state;
        CoreSet holders;
    };

    /** The entry for @p line_addr, which must exist. */
    LedgerEntry &holderEntry(HostAddr line_addr);

    /**
     * Write back @p cur as the state of @p key, whose entry is
     * @p entry (nullptr when absent): the default state drops it.
     */
    void store(std::uint64_t key, LedgerEntry *entry, MemLineState cur);

    std::uint32_t tokensPerLine_;
    std::uint32_t numControllers_;
    /** numControllers_ - 1 when a power of two, else 0 (modulo path). */
    std::uint32_t ctrlMask_ = 0;
    Tick latency_;
    /** Lines deviating from the all-tokens-at-memory default. */
    FlatMap<LedgerEntry> ledger_;
};

} // namespace vsnoop

#endif // VSNOOP_MEM_MAIN_MEMORY_HH_
