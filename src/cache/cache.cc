#include "cache/cache.hh"

#include <algorithm>
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
 * The compare runs on 8-bit lanes, so @p age is clamped to 255: that
 * only matters for a 256-way set with an empty way, whose at most 255
 * valid ways all rank below 255 and age either way.
 */
void
touch(std::uint8_t *ranks, std::uint32_t ways, std::uint32_t way,
      std::uint32_t age)
{
    const auto age8 =
        static_cast<std::uint8_t>(std::min<std::uint32_t>(age, 255));
    for (std::uint32_t w = 0; w < ways; ++w)
        ranks[w] += ranks[w] < age8;
    ranks[way] = 0;
}

/**
 * Index of the one entry of @p v[0..n) equal to @p key, or ~0 when
 * none is. Callers guarantee at most one match (see Cache::lookup).
 * The loop ORs index + 1 of every match with no early exit, so it has
 * no data-dependent branch and vectorises at the baseline ISA.
 */
template <typename T>
std::uint32_t
uniqueMatch(const T *v, std::uint32_t n, T key)
{
    std::uint32_t found = 0;
    for (std::uint32_t w = 0; w < n; ++w)
        found |= v[w] == key ? w + 1 : 0;
    return found - 1;
}

/** Number of non-zero (valid) tags in @p tags[0..n). */
std::uint32_t
validWays(const std::uint32_t *tags, std::uint32_t n)
{
    std::uint32_t valid = 0;
    for (std::uint32_t w = 0; w < n; ++w)
        valid += tags[w] != 0;
    return valid;
}

[[noreturn]] __attribute__((noinline, cold)) void
beyondTagRange(const std::string &name, Addr addr)
{
    fatal("cache '", name, "': address 0x", std::hex, addr, std::dec,
          " is beyond its 32-bit tag range");
}

/** Set count of @p cfg; fatal for a geometry the model cannot hold. */
std::uint64_t
checkedSets(const CacheConfig &cfg)
{
    const std::uint64_t sets = cfg.sets();
    if (sets == 0)
        fatal("cache '", cfg.name, "' has zero sets: size ",
              cfg.sizeBytes, " B, ", cfg.ways, " ways, ", cfg.lineBytes,
              " B lines");
    if (cfg.sizeBytes % (static_cast<std::uint64_t>(cfg.ways) *
                         cfg.lineBytes) != 0)
        fatal("cache '", cfg.name,
              "' size is not a multiple of ways*lineBytes");
    // A single set of one-byte lines would spend the 32-bit tag range
    // on the first 4 GiB.
    if (sets * cfg.lineBytes < 2)
        fatal("cache '", cfg.name, "' needs more than one byte per set");
    if (!isPow2(cfg.lineBytes))
        fatal("cache '", cfg.name, "' line size ", cfg.lineBytes,
              " B is not a power of two");
    if (cfg.ways > 256)
        fatal("cache '", cfg.name, "' has ", cfg.ways,
              " ways; 8-bit LRU ranks allow at most 256");
    return sets;
}

} // namespace

Cache::Cache(const CacheConfig &cfg)
    : _cfg(cfg), _sets(checkedSets(cfg)),
      _hitLatency(ticksFromNs(cfg.hitLatencyNs)),
      _lineShift(log2Exact(cfg.lineBytes)),
      _blockBytes((std::uint64_t{cfg.ways} * 5 + kBlockAlign - 1) /
                  kBlockAlign * kBlockAlign)
{
    const std::uint64_t bytes = _sets.divisor() * _blockBytes;
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
    const std::uint64_t tag = _sets.quot(line);
    const std::uint64_t set = line - tag * _sets.divisor();
    if (tag >= 0xFFFFFFFFu)
        beyondTagRange(_cfg.name, addr);
    return Slot{set, static_cast<std::uint32_t>(tag + 1)};
}

template <std::uint32_t W>
CacheAccessResult
Cache::lookupWays(Addr addr, bool counted)
{
    // Every scan below is a fixed-trip loop over the whole set, resting
    // on two invariants of this model:
    //  - a tag is stored only on a miss, so a set holds each tag at
    //    most once, and a full set's ranks are a permutation of
    //    0..ways-1: the line's way and the rank-(ways-1) victim are
    //    unique matches;
    //  - a miss fills the first empty way and only flush() empties
    //    one (all at once), so the valid ways are a prefix and the
    //    first empty way is the valid count.
    const std::uint32_t ways = W != 0 ? W : _cfg.ways;
    const Slot slot = slotOf(addr);
    std::uint32_t *tags = tagsOf(slot.set);
    std::uint8_t *ranks = reinterpret_cast<std::uint8_t *>(tags + ways);
    const std::uint32_t way = uniqueMatch(tags, ways, slot.tag);
    if (way < ways) {
        if (counted && _cfg.policy == ReplacementPolicy::Lru)
            touch(ranks, ways, way, ranks[way]);
        return CacheAccessResult{true, false, 0};
    }
    if (counted)
        ++_misses;

    CacheAccessResult res;
    std::uint32_t victim = validWays(tags, ways);
    const bool had_empty = victim < ways;
    if (!had_empty) {
        // Rank ways-1 is the least recently used (LRU) or first
        // inserted (FIFO) way.
        victim = _cfg.policy == ReplacementPolicy::Random
                     ? static_cast<std::uint32_t>(_rng.nextBelow(ways))
                     : uniqueMatch(ranks, ways,
                                   static_cast<std::uint8_t>(ways - 1));
        res.evictedValid = true;
        res.evictedAddr =
            ((std::uint64_t{tags[victim]} - 1) * _sets.divisor() +
             slot.set)
            << _lineShift;
    }
    touch(ranks, ways, victim, had_empty ? ways : ranks[victim]);
    tags[victim] = slot.tag;
    return res;
}

CacheAccessResult
Cache::lookup(Addr addr, bool counted)
{
    // The Broadwell geometries get a compile-time way count, so their
    // scans unroll into straight-line vector code with no remainder
    // loop; every other geometry runs the same body with a runtime
    // count.
    switch (_cfg.ways) {
      case 8:
        return lookupWays<8>(addr, counted);
      case 20:
        return lookupWays<20>(addr, counted);
      default:
        return lookupWays<0>(addr, counted);
    }
}

bool
Cache::probe(Addr addr) const
{
    const Slot slot = slotOf(addr);
    return uniqueMatch(tagsOf(slot.set), _cfg.ways, slot.tag) < _cfg.ways;
}

void
Cache::flush()
{
    for (std::uint64_t set = 0; set < _sets.divisor(); ++set)
        std::memset(tagsOf(set), 0, _cfg.ways * sizeof(std::uint32_t));
}

void
Cache::resetStats()
{
    _accesses = 0;
    _misses = 0;
}

} // namespace centaur
