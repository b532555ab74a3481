#include "cache/cache.hh"

#include <algorithm>

#include "sim/log.hh"

namespace centaur {

Cache::Cache(const CacheConfig &cfg)
    : _cfg(cfg), _sets(cfg.sets()),
      _hitLatency(ticksFromNs(cfg.hitLatencyNs)),
      _tags(cfg.sets() * cfg.ways, kInvalid),
      _stamps(cfg.sets() * cfg.ways)
{
    if (_sets == 0)
        fatal("cache '", cfg.name, "' has zero sets: size ",
              cfg.sizeBytes, " B, ", cfg.ways, " ways, ", cfg.lineBytes,
              " B lines");
    if (cfg.sizeBytes % (static_cast<std::uint64_t>(cfg.ways) *
                         cfg.lineBytes) != 0)
        fatal("cache '", cfg.name,
              "' size is not a multiple of ways*lineBytes");
    // Tags are below ~0 / (lineBytes * sets), so kInvalid is free
    // unless a line is one byte in a single set.
    if (_sets * cfg.lineBytes < 2)
        fatal("cache '", cfg.name, "' needs more than one byte per set");
}

std::uint32_t
Cache::findWay(std::uint64_t set, std::uint64_t tag) const
{
    const std::uint64_t *tags = &_tags[set * _cfg.ways];
    std::uint32_t w = 0;
    while (w < _cfg.ways && tags[w] != tag)
        ++w;
    return w;
}

CacheAccessResult
Cache::access(Addr addr)
{
    ++_accesses;
    ++_clock;
    const Addr line = addr / _cfg.lineBytes;
    const std::uint64_t set = setIndex(line);
    const std::uint64_t tag = tagOf(line);
    const std::uint32_t w = findWay(set, tag);
    if (w < _cfg.ways) {
        if (_cfg.policy == ReplacementPolicy::Lru)
            _stamps[set * _cfg.ways + w] = _clock;
        return CacheAccessResult{true, false, 0};
    }
    ++_misses;
    return allocate(set, tag);
}

bool
Cache::probe(Addr addr) const
{
    const Addr line = addr / _cfg.lineBytes;
    return findWay(setIndex(line), tagOf(line)) < _cfg.ways;
}

CacheAccessResult
Cache::fill(Addr addr)
{
    ++_clock;
    const Addr line = addr / _cfg.lineBytes;
    const std::uint64_t set = setIndex(line);
    const std::uint64_t tag = tagOf(line);
    if (findWay(set, tag) < _cfg.ways)
        return CacheAccessResult{true, false, 0};
    return allocate(set, tag);
}

CacheAccessResult
Cache::allocate(std::uint64_t set, std::uint64_t tag)
{
    const std::size_t base = set * _cfg.ways;
    const std::size_t way = base + victimWay(base);
    CacheAccessResult res;
    if (_tags[way] != kInvalid) {
        res.evictedValid = true;
        res.evictedAddr = (_tags[way] * _sets + set) * _cfg.lineBytes;
    }
    _tags[way] = tag;
    _stamps[way] = _clock;
    return res;
}

std::size_t
Cache::victimWay(std::size_t base)
{
    // Prefer an empty way.
    const std::uint64_t *tags = &_tags[base];
    for (std::uint32_t w = 0; w < _cfg.ways; ++w)
        if (tags[w] == kInvalid)
            return w;

    if (_cfg.policy == ReplacementPolicy::Random)
        return static_cast<std::size_t>(_rng.nextBelow(_cfg.ways));
    // LRU and FIFO: the lowest stamp, the first way on ties.
    const std::uint64_t *stamps = &_stamps[base];
    std::size_t victim = 0;
    for (std::uint32_t w = 1; w < _cfg.ways; ++w)
        if (stamps[w] < stamps[victim])
            victim = w;
    return victim;
}

void
Cache::flush()
{
    std::fill(_tags.begin(), _tags.end(), kInvalid);
}

void
Cache::resetStats()
{
    _accesses = 0;
    _misses = 0;
}

} // namespace centaur
