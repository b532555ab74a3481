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

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "sim/divider.hh"
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
 * Lookups a gather runs ahead of its demand stream when it hints the
 * set blocks of upcoming rows (Cache::prefetchSet). Distances 4 to 16
 * measured alike in BM_GatherRows on a 4-vCPU Xeon VM.
 */
constexpr std::size_t kSetPrefetchDistance = 8;

/**
 * One level of tag-only set-associative cache.
 *
 * Lines must be a power of two bytes. A line's tag (line / sets) must
 * fit below 2^32 - 1; an access beyond that range is fatal (16 TiB on
 * a 64-set, 64 B-line cache).
 *
 * Set indexing divides by the set count through a Divider: a mask
 * for a power of two, else a multiply-high that is exact for every
 * line below 2^64 / sets. Every legal line is below 2^32 * sets, so
 * with fewer than 2^16 sets no lookup divides; larger non-power-of-two
 * set counts divide only lines from 2^64 / sets up.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the line containing @p addr; allocate on miss.
     * Addresses are line-aligned internally.
     */
    CacheAccessResult
    access(Addr addr)
    {
        ++_accesses;
        return lookup(addr, true);
    }

    /** Access without allocating on miss (probe). */
    bool probe(Addr addr) const;

    /**
     * Insert the line containing @p addr without counting an access
     * (fill from a lower level or prefetch).
     */
    CacheAccessResult fill(Addr addr) { return lookup(addr, false); }

    /**
     * Host-only hint: start loading the set block @p addr maps to into
     * the host cache. Touches no model state and counts nothing.
     */
    void
    prefetchSet(Addr addr) const
    {
        const auto *block = reinterpret_cast<const char *>(
            tagsOf(_sets.rem(addr >> _lineShift)));
        for (std::uint64_t off = 0; off < _blockBytes; off += 64)
            __builtin_prefetch(block + off);
    }

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
        return _blocks.get() + set * (_blockBytes / 4);
    }

    /**
     * access() when @p counted, else fill(), which neither counts nor
     * refreshes an LRU hit.
     */
    CacheAccessResult lookup(Addr addr, bool counted);

    /** lookup() for @p W ways, or for _cfg.ways when @p W is 0. */
    template <std::uint32_t W>
    CacheAccessResult lookupWays(Addr addr, bool counted);

    CacheConfig _cfg;
    Divider _sets;
    Tick _hitLatency;
    unsigned _lineShift = 0;
    std::uint64_t _blockBytes = 0; //!< bytes per set, a 64 B multiple
    std::unique_ptr<std::uint32_t[], FreeBlocks> _blocks;
    Rng _rng{0xC0FFEE};

    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
};

} // namespace centaur

#endif // CENTAUR_CACHE_CACHE_HH
