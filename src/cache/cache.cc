#include "cache/cache.hh"

#include <cstring>
#include <ios>

#include "sim/log.hh"

namespace centaur {

namespace {

constexpr std::uint64_t kBlockAlign = 64;

unsigned
log2Exact(std::uint64_t v)
{
    unsigned s = 0;
    while ((std::uint64_t{1} << s) < v)
        ++s;
    return s;
}

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Make @p way the newest of a set: every way younger than @p age (the
 * way's rank, or @p ways when it was empty) ages by one. Empty ways
 * age too; their ranks are never read, and filling one zeroes it.
 */
void
touch(std::uint8_t *ranks, std::uint32_t ways, std::uint32_t way,
      std::uint32_t age)
{
    for (std::uint32_t w = 0; w < ways; ++w)
        ranks[w] += ranks[w] < age;
    ranks[way] = 0;
}

} // namespace

Cache::Cache(const CacheConfig &cfg)
    : _cfg(cfg), _sets(cfg.sets()),
      _hitLatency(ticksFromNs(cfg.hitLatencyNs))
{
    if (_sets == 0)
        fatal("cache '", cfg.name, "' has zero sets: size ",
              cfg.sizeBytes, " B, ", cfg.ways, " ways, ", cfg.lineBytes,
              " B lines");
    if (cfg.sizeBytes % (static_cast<std::uint64_t>(cfg.ways) *
                         cfg.lineBytes) != 0)
        fatal("cache '", cfg.name,
              "' size is not a multiple of ways*lineBytes");
    // A single set of one-byte lines would spend the 32-bit tag range
    // on the first 4 GiB.
    if (_sets * cfg.lineBytes < 2)
        fatal("cache '", cfg.name, "' needs more than one byte per set");
    if (!isPow2(cfg.lineBytes))
        fatal("cache '", cfg.name, "' line size ", cfg.lineBytes,
              " B is not a power of two");
    if (cfg.ways > 256)
        fatal("cache '", cfg.name, "' has ", cfg.ways,
              " ways; 8-bit LRU ranks allow at most 256");
    _lineShift = log2Exact(cfg.lineBytes);
    _setsPow2 = isPow2(_sets);
    _setShift = _setsPow2 ? log2Exact(_sets) : 0;
    _blockWords = (std::uint64_t{cfg.ways} * 5 + kBlockAlign - 1) /
                  kBlockAlign * kBlockAlign / sizeof(std::uint32_t);
    const std::uint64_t bytes = _sets * _blockWords * sizeof(std::uint32_t);
    _blocks.reset(static_cast<std::uint32_t *>(
        std::aligned_alloc(kBlockAlign, bytes)));
    if (!_blocks)
        fatal("cache '", cfg.name, "': cannot allocate ", bytes,
              " B of tags");
    std::memset(_blocks.get(), 0, bytes);
}

Cache::Slot
Cache::slotOf(Addr addr) const
{
    const Addr line = addr >> _lineShift;
    std::uint64_t set;
    std::uint64_t tag;
    if (_setsPow2) {
        set = line & (_sets - 1);
        tag = line >> _setShift;
    } else {
        tag = line / _sets;
        set = line - tag * _sets;
    }
    if (tag >= 0xFFFFFFFFu)
        fatal("cache '", _cfg.name, "': address 0x", std::hex, addr,
              std::dec, " is beyond its 32-bit tag range");
    return Slot{set, static_cast<std::uint32_t>(tag + 1)};
}

CacheAccessResult
Cache::access(Addr addr)
{
    ++_accesses;
    return lookup(addr, true);
}

CacheAccessResult
Cache::fill(Addr addr)
{
    return lookup(addr, false);
}

CacheAccessResult
Cache::lookup(Addr addr, bool counted)
{
    const std::uint32_t ways = _cfg.ways;
    const Slot slot = slotOf(addr);
    std::uint32_t *tags = tagsOf(slot.set);
    std::uint8_t *ranks = reinterpret_cast<std::uint8_t *>(tags + ways);
    // One scan finds the line or, failing that, the first empty way.
    std::uint32_t empty = ways;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags[w] == slot.tag) {
            if (counted && _cfg.policy == ReplacementPolicy::Lru)
                touch(ranks, ways, w, ranks[w]);
            return CacheAccessResult{true, false, 0};
        }
        if (tags[w] == 0 && empty == ways)
            empty = w;
    }
    if (counted)
        ++_misses;

    CacheAccessResult res;
    std::uint32_t victim = empty;
    if (victim == ways) {
        // Full set. Ranks are a permutation of 0..ways-1, and rank
        // ways-1 is the least recently used (LRU) or first inserted
        // (FIFO) way.
        if (_cfg.policy == ReplacementPolicy::Random) {
            victim = static_cast<std::uint32_t>(_rng.nextBelow(ways));
        } else {
            victim = 0;
            while (ranks[victim] != ways - 1)
                ++victim;
        }
        res.evictedValid = true;
        res.evictedAddr = ((std::uint64_t{tags[victim]} - 1) * _sets +
                           slot.set)
                          << _lineShift;
    }
    touch(ranks, ways, victim, victim == empty ? ways : ranks[victim]);
    tags[victim] = slot.tag;
    return res;
}

bool
Cache::probe(Addr addr) const
{
    const Slot slot = slotOf(addr);
    const std::uint32_t *tags = tagsOf(slot.set);
    for (std::uint32_t w = 0; w < _cfg.ways; ++w)
        if (tags[w] == slot.tag)
            return true;
    return false;
}

void
Cache::flush()
{
    for (std::uint64_t set = 0; set < _sets; ++set)
        std::memset(tagsOf(set), 0, _cfg.ways * sizeof(std::uint32_t));
}

void
Cache::resetStats()
{
    _accesses = 0;
    _misses = 0;
}

} // namespace centaur
