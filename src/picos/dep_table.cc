#include "picos/dep_table.hh"

#include "sim/log.hh"

namespace picosim::picos
{

namespace
{

// Full 64-bit finalizer (splitmix64): stride-64 access patterns
// (cache-line sized blocks) must spread over all sets, otherwise the
// gateway stalls long before the reservation station fills.
std::uint64_t
addrHash(Addr addr)
{
    std::uint64_t h = addr >> 3;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h;
}

} // namespace

DepTable::DepTable(unsigned sets, unsigned ways, unsigned shard_id,
                   unsigned num_shards)
    : sets_(sets), ways_(ways), shardId_(shard_id), numShards_(num_shards)
{
    if (sets == 0 || ways == 0)
        sim::fatal("DepTable needs at least one set and one way");
    if (num_shards == 0 || shard_id >= num_shards)
        sim::fatal("DepTable shard id out of range");
    entries_.assign(std::size_t{sets} * ways, DepEntry{});
}

unsigned
DepTable::shardOf(Addr addr, unsigned num_shards)
{
    // Fold the upper hash bits so shard interleaving stays decorrelated
    // from the set index (which consumes the hash modulo sets).
    return static_cast<unsigned>((addrHash(addr) >> 32) % num_shards);
}

unsigned
DepTable::setOf(Addr addr) const
{
    return static_cast<unsigned>(addrHash(addr) % sets_);
}

void
DepTable::checkOwnership(Addr addr) const
{
    if (numShards_ > 1 && shardOf(addr, numShards_) != shardId_)
        sim::panic("DepTable shard routing violation");
}

DepEntry *
DepTable::find(Addr addr)
{
    checkOwnership(addr);
    DepEntry *base = &entries_[std::size_t{setOf(addr)} * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].addr == addr)
            return &base[w];
    }
    return nullptr;
}

DepEntry *
DepTable::alloc(Addr addr,
                const EvictPred &evictable)
{
    checkOwnership(addr);
    DepEntry *base = &entries_[std::size_t{setOf(addr)} * ways_];
    DepEntry *victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (!victim && evictable(base[w]))
            victim = &base[w];
    }
    if (!victim)
        return nullptr;
    victim->valid = true;
    victim->addr = addr;
    victim->lastWriter = TaskRef{};
    victim->readers.clear();
    return victim;
}

} // namespace picosim::picos
