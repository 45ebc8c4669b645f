#include "mem/main_memory.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vsnoop
{

MainMemory::MainMemory(std::uint32_t tokens_per_line,
                       std::uint32_t num_controllers, Tick latency)
    : tokensPerLine_(tokens_per_line), numControllers_(num_controllers),
      latency_(latency)
{
    vsnoop_assert(tokens_per_line >= 1, "need at least one token per line");
    vsnoop_assert(num_controllers >= 1, "need at least one controller");
    ctrlMask_ = (numControllers_ & (numControllers_ - 1)) == 0
                    ? numControllers_ - 1
                    : 0;
}

std::uint32_t
MainMemory::controllerFor(HostAddr line_addr) const
{
    // Controller counts are powers of two in every shipped config;
    // keep the division only for odd test configurations.
    if (ctrlMask_ != 0 || numControllers_ == 1)
        return static_cast<std::uint32_t>(line_addr.lineNum()) & ctrlMask_;
    return static_cast<std::uint32_t>(line_addr.lineNum() % numControllers_);
}

MemLineState
MainMemory::state(HostAddr line_addr) const
{
    const LedgerEntry *entry =
        ledger_.find(line_addr.lineAligned().lineNum());
    if (entry == nullptr)
        return MemLineState{tokensPerLine_, true};
    return entry->state;
}

CoreSet
MainMemory::holders(HostAddr line_addr) const
{
    const LedgerEntry *entry =
        ledger_.find(line_addr.lineAligned().lineNum());
    return entry == nullptr ? CoreSet{} : entry->holders;
}

MainMemory::LedgerEntry &
MainMemory::holderEntry(HostAddr line_addr)
{
    LedgerEntry *entry = ledger_.find(line_addr.lineAligned().lineNum());
    vsnoop_assert(entry != nullptr, "cached copy of line ", line_addr.raw(),
                  " while memory holds every token");
    return *entry;
}

void
MainMemory::addHolder(HostAddr line_addr, CoreId core)
{
    holderEntry(line_addr).holders.add(core);
}

void
MainMemory::removeHolder(HostAddr line_addr, CoreId core)
{
    holderEntry(line_addr).holders.remove(core);
}

void
MainMemory::store(std::uint64_t key, LedgerEntry *entry, MemLineState cur)
{
    if (cur.tokens == tokensPerLine_ && cur.owner) {
        // Back at the default state: drop the ledger entry.
        if (entry != nullptr) {
            vsnoop_assert(entry->holders.empty(), "every token of line ",
                          key, " at memory with cached copies at ",
                          entry->holders.toString());
            ledger_.erase(key);
        }
    } else if (entry != nullptr) {
        entry->state = cur;
    } else {
        ledger_.emplace(key, LedgerEntry{cur, CoreSet{}});
    }
}

MemLineState
MainMemory::takeTokens(HostAddr line_addr, std::uint32_t want,
                       bool may_take_owner)
{
    std::uint64_t key = line_addr.lineAligned().lineNum();
    LedgerEntry *entry = ledger_.find(key);
    MemLineState cur = (entry == nullptr)
        ? MemLineState{tokensPerLine_, true}
        : entry->state;

    MemLineState taken;
    if (cur.tokens == 0)
        return taken;

    std::uint32_t plain = cur.tokens - (cur.owner ? 1 : 0);
    std::uint32_t give_plain = std::min(want, plain);
    taken.tokens = give_plain;
    cur.tokens -= give_plain;
    want -= give_plain;

    if (want > 0 && cur.owner && may_take_owner) {
        taken.tokens += 1;
        taken.owner = true;
        cur.tokens -= 1;
        cur.owner = false;
    }

    store(key, entry, cur);
    return taken;
}

void
MainMemory::returnTokens(HostAddr line_addr, std::uint32_t tokens,
                         bool owner)
{
    if (tokens == 0 && !owner)
        return;
    std::uint64_t key = line_addr.lineAligned().lineNum();
    LedgerEntry *entry = ledger_.find(key);
    MemLineState cur = (entry == nullptr)
        ? MemLineState{tokensPerLine_, true}
        : entry->state;

    cur.tokens += tokens;
    if (owner) {
        vsnoop_assert(!cur.owner,
                      "owner token returned while memory already owns line ",
                      line_addr.raw());
        cur.owner = true;
    }
    vsnoop_assert(cur.tokens <= tokensPerLine_,
                  "token overflow at memory for line ", line_addr.raw(),
                  ": ", cur.tokens, " > ", tokensPerLine_);
    store(key, entry, cur);
}

bool
MainMemory::canProvideData(HostAddr line_addr, bool line_is_ro_shared) const
{
    if (line_is_ro_shared)
        return true;
    return state(line_addr).owner;
}

} // namespace vsnoop
