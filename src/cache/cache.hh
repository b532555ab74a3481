/**
 * @file
 * Set-associative cache model with selectable replacement policy.
 *
 * Used functionally (hit/miss classification and LLC miss-rate / MPKI
 * statistics for Fig 6) and as the latency source for the CPU-side
 * timing models. Tag-only: data contents live in the functional DLRM
 * model, the cache tracks presence.
 *
 * Storage is one 64 B-aligned block per set: u32 tag[ways], then
 * u8 rank[ways], padded to a 64 B multiple (5 B/way; an 8-way set is
 * one host line, a 20-way set two). A stored tag is line / sets + 1,
 * so 0 marks an empty way and a zeroed block is an empty set. A rank
 * is the way's age among the valid ways of its set, 0 the newest.
 */

#ifndef CENTAUR_CACHE_CACHE_HH
#define CENTAUR_CACHE_CACHE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/units.hh"

namespace centaur {

/** Victim-selection policy. */
enum class ReplacementPolicy
{
    Lru,
    Fifo,
    Random,
};

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * kKiB;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
    double hitLatencyNs = 1.5;
    ReplacementPolicy policy = ReplacementPolicy::Lru;

    std::uint64_t
    sets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(ways) * lineBytes);
    }
};

/** Outcome of a single-line cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool evictedValid = false; //!< a valid line was displaced
    Addr evictedAddr = 0;
};

/**
 * One level of tag-only set-associative cache.
 *
 * Lines must be a power of two bytes. A line's tag (line / sets) must
 * fit below 2^32 - 1; an access beyond that range is fatal (16 TiB on
 * a 64-set, 64 B-line cache).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the line containing @p addr; allocate on miss.
     * Addresses are line-aligned internally.
     */
    CacheAccessResult access(Addr addr);

    /** Access without allocating on miss (probe). */
    bool probe(Addr addr) const;

    /**
     * Insert the line containing @p addr without counting an access
     * (fill from a lower level or prefetch).
     */
    CacheAccessResult fill(Addr addr);

    /** Invalidate everything. */
    void flush();

    /** Reset statistics, keep contents. */
    void resetStats();

    const CacheConfig &config() const { return _cfg; }
    Tick hitLatency() const { return _hitLatency; }

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t hits() const { return _accesses - _misses; }

    double
    missRate() const
    {
        return _accesses ? static_cast<double>(_misses) /
                               static_cast<double>(_accesses)
                         : 0.0;
    }

  private:
    /** Set of a line and its stored tag (line / sets + 1). */
    struct Slot
    {
        std::uint64_t set;
        std::uint32_t tag;
    };

    struct FreeBlocks
    {
        void operator()(std::uint32_t *p) const { std::free(p); }
    };

    Slot slotOf(Addr addr) const;

    /** Block of @p set; its ranks follow the tags. */
    std::uint32_t *
    tagsOf(std::uint64_t set) const
    {
        return _blocks.get() + set * _blockWords;
    }

    /**
     * access() when @p counted, else fill(), which neither counts nor
     * refreshes an LRU hit.
     */
    CacheAccessResult lookup(Addr addr, bool counted);

    CacheConfig _cfg;
    std::uint64_t _sets;
    Tick _hitLatency;
    unsigned _lineShift = 0;
    bool _setsPow2 = false;
    unsigned _setShift = 0;        //!< log2(_sets) when _setsPow2
    std::uint64_t _blockWords = 0; //!< u32 words per set, 64 B multiple
    std::unique_ptr<std::uint32_t[], FreeBlocks> _blocks;
    Rng _rng{0xC0FFEE};

    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
};

} // namespace centaur

#endif // CENTAUR_CACHE_CACHE_HH
