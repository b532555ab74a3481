/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

CacheConfig
smallCache(ReplacementPolicy policy = ReplacementPolicy::Lru)
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheConfig{"test", 512, 2, 64, 1.0, policy};
}

TEST(Cache, ColdAccessMisses)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0).hit);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.accesses(), 1u);
}

TEST(Cache, SecondAccessHits)
{
    Cache c(smallCache());
    c.access(0);
    EXPECT_TRUE(c.access(0).hit);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, SameLineDifferentBytesHit)
{
    Cache c(smallCache());
    c.access(128);
    EXPECT_TRUE(c.access(128 + 63).hit);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(smallCache());
    // Set 0 holds lines 0, 4, 8, ... (4 sets); two ways.
    const Addr a = 0 * 64;
    const Addr b = 4 * 64;
    const Addr d = 8 * 64;
    c.access(a);
    c.access(b);
    c.access(a);      // a most recent
    const auto r = c.access(d); // evicts b
    EXPECT_TRUE(r.evictedValid);
    EXPECT_EQ(r.evictedAddr, b);
    EXPECT_TRUE(c.access(a).hit);
    EXPECT_FALSE(c.access(b).hit);
}

TEST(Cache, FifoEvictsOldestInsertion)
{
    Cache c(smallCache(ReplacementPolicy::Fifo));
    const Addr a = 0 * 64;
    const Addr b = 4 * 64;
    const Addr d = 8 * 64;
    c.access(a);
    c.access(b);
    c.access(a); // FIFO ignores recency
    const auto r = c.access(d);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_EQ(r.evictedAddr, a);
}

TEST(Cache, RandomPolicyEvictsSomething)
{
    Cache c(smallCache(ReplacementPolicy::Random));
    c.access(0 * 64);
    c.access(4 * 64);
    const auto r = c.access(8 * 64);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_TRUE(r.evictedAddr == 0 * 64 || r.evictedAddr == 4 * 64);
}

TEST(Cache, ProbeDoesNotAllocateOrCount)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.accesses(), 0u);
    c.access(0);
    EXPECT_TRUE(c.probe(0));
    EXPECT_EQ(c.accesses(), 1u);
}

TEST(Cache, FillInstallsWithoutCountingAccess)
{
    Cache c(smallCache());
    c.fill(0);
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.access(0).hit);
}

TEST(Cache, FillOfResidentLineIsIdempotent)
{
    Cache c(smallCache());
    c.fill(0);
    const auto r = c.fill(0);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.evictedValid);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c(smallCache());
    c.access(0);
    c.flush();
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c(smallCache());
    c.access(0);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.probe(0));
}

TEST(Cache, MissRateComputation)
{
    Cache c(smallCache());
    c.access(0);
    c.access(0);
    c.access(0);
    c.access(0);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.25);
}

TEST(Cache, WorkingSetWithinCapacityFullyHitsAfterWarmup)
{
    CacheConfig cfg{"c", 64 * kKiB, 8, 64, 1.0,
                    ReplacementPolicy::Lru};
    Cache c(cfg);
    for (Addr line = 0; line < 1024; ++line)
        c.access(line * 64);
    c.resetStats();
    for (Addr line = 0; line < 1024; ++line)
        c.access(line * 64);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.0);
}

TEST(Cache, WorkingSetBeyondCapacityThrashesUnderLru)
{
    CacheConfig cfg{"c", 64 * kKiB, 8, 64, 1.0,
                    ReplacementPolicy::Lru};
    Cache c(cfg);
    // Stream 2x the capacity cyclically: LRU worst case, ~0 hits.
    for (int pass = 0; pass < 3; ++pass)
        for (Addr line = 0; line < 2048; ++line)
            c.access(line * 64);
    EXPECT_GT(c.missRate(), 0.95);
}

TEST(Cache, HitLatencyFromConfig)
{
    Cache c(CacheConfig{"c", 512, 2, 64, 7.5,
                        ReplacementPolicy::Lru});
    EXPECT_EQ(c.hitLatency(), ticksFromNs(7.5));
}

TEST(CacheDeath, RejectsZeroSets)
{
    EXPECT_DEATH(Cache(CacheConfig{"bad", 64, 8, 64, 1.0,
                                   ReplacementPolicy::Lru}),
                 "zero sets");
}

TEST(CacheDeath, RejectsNonMultipleGeometry)
{
    EXPECT_DEATH(Cache(CacheConfig{"bad", 1000, 3, 64, 1.0,
                                   ReplacementPolicy::Lru}),
                 "multiple");
}

TEST(CacheDeath, RejectsOneByteSingleSetGeometry)
{
    // Its tags would span every u64, the empty-way sentinel included.
    EXPECT_DEATH(Cache(CacheConfig{"bad", 4, 4, 1, 1.0,
                                   ReplacementPolicy::Lru}),
                 "more than one byte per set");
}

TEST(CacheDeath, RejectsNonPowerOfTwoLineSize)
{
    EXPECT_DEATH(Cache(CacheConfig{"bad", 48 * 2 * 4, 2, 48, 1.0,
                                   ReplacementPolicy::Lru}),
                 "not a power of two");
}

TEST(CacheDeath, RejectsMoreWaysThanRanksCanOrder)
{
    EXPECT_DEATH(Cache(CacheConfig{"bad", 257 * 64, 257, 64, 1.0,
                                   ReplacementPolicy::Lru}),
                 "at most 256");
}

TEST(CacheDeath, RejectsAddressBeyondTagRange)
{
    // 4 sets of 64 B lines: the largest tag is 2^32 - 2, so the first
    // line out of range is (2^32 - 1) * 4.
    const Addr first_out = (Addr{0xFFFFFFFF} * 4) * 64;
    Cache c(smallCache());
    EXPECT_FALSE(c.access(first_out - 1).hit);
    EXPECT_TRUE(c.probe(first_out - 64));
    EXPECT_DEATH(c.access(first_out), "'test': address 0xffffffff00 "
                                      "is beyond its 32-bit tag range");
    EXPECT_DEATH(c.fill(first_out + 64 * 3), "32-bit tag range");
    EXPECT_DEATH(c.probe(~Addr{0}), "32-bit tag range");
}

// ---------------------------------------------------------------
// Property sweep: random access streams across geometries must keep
// accesses == hits + misses and respect capacity bounds.
// ---------------------------------------------------------------

using Geometry = std::tuple<std::uint64_t, std::uint32_t>;

class CacheGeometryTest : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometryTest, InvariantsHoldUnderRandomStream)
{
    const auto [size, ways] = GetParam();
    Cache c(CacheConfig{"p", size, ways, 64, 1.0,
                        ReplacementPolicy::Lru});
    Rng rng(99);
    std::uint64_t manual_hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.nextBelow(4096) * 64;
        const bool resident = c.probe(a);
        const auto r = c.access(a);
        EXPECT_EQ(r.hit, resident);
        manual_hits += r.hit;
    }
    EXPECT_EQ(c.accesses(), 20000u);
    EXPECT_EQ(c.hits(), manual_hits);
    EXPECT_EQ(c.hits() + c.misses(), c.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(Geometry{8 * kKiB, 2}, Geometry{32 * kKiB, 8},
                      Geometry{256 * kKiB, 8},
                      Geometry{1 * kMiB, 16}));

// ---------------------------------------------------------------
// Oracle: a test-local copy of the original array-of-structs cache
// model ({valid, tag, stamp} per way, invalid-first then
// lowest-stamp-first-on-ties or the seeded Rng), driven in lockstep
// with Cache. Any change to hits, victims or counters shows up as a
// divergence at the first step that differs.
// ---------------------------------------------------------------

class OracleCache
{
  public:
    explicit OracleCache(const CacheConfig &cfg)
        : _cfg(cfg), _sets(cfg.sets()), _ways(_sets * cfg.ways)
    {
    }

    CacheAccessResult
    access(Addr addr)
    {
        ++_accesses;
        return lookupOrAllocate(addr, true);
    }

    CacheAccessResult
    fill(Addr addr)
    {
        return lookupOrAllocate(addr, false);
    }

    bool
    probe(Addr addr) const
    {
        const Addr line = addr / _cfg.lineBytes;
        const Way *base = &_ways[(line % _sets) * _cfg.ways];
        for (std::uint32_t w = 0; w < _cfg.ways; ++w)
            if (base[w].valid && base[w].tag == line / _sets)
                return true;
        return false;
    }

    void
    flush()
    {
        for (Way &way : _ways)
            way.valid = false;
    }

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t misses() const { return _misses; }

  private:
    struct Way
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0;
    };

    CacheAccessResult
    lookupOrAllocate(Addr addr, bool counted)
    {
        const Addr line = addr / _cfg.lineBytes;
        const std::uint64_t set = line % _sets;
        const std::uint64_t tag = line / _sets;
        Way *base = &_ways[set * _cfg.ways];
        ++_clock;
        for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                if (counted && _cfg.policy == ReplacementPolicy::Lru)
                    base[w].stamp = _clock;
                return CacheAccessResult{true, false, 0};
            }
        }
        if (counted)
            ++_misses;
        Way &way = base[victimWay(base)];
        CacheAccessResult res;
        res.evictedValid = way.valid;
        if (way.valid)
            res.evictedAddr = (way.tag * _sets + set) * _cfg.lineBytes;
        way.valid = true;
        way.tag = tag;
        way.stamp = _clock;
        return res;
    }

    std::size_t
    victimWay(const Way *base)
    {
        for (std::uint32_t w = 0; w < _cfg.ways; ++w)
            if (!base[w].valid)
                return w;
        if (_cfg.policy == ReplacementPolicy::Random)
            return static_cast<std::size_t>(_rng.nextBelow(_cfg.ways));
        std::size_t victim = 0;
        std::uint64_t oldest = ~std::uint64_t{0};
        for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
            if (base[w].stamp < oldest) {
                oldest = base[w].stamp;
                victim = w;
            }
        }
        return victim;
    }

    CacheConfig _cfg;
    std::uint64_t _sets;
    std::vector<Way> _ways;
    std::uint64_t _clock = 0;
    Rng _rng{0xC0FFEE};
    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
};

using OracleCase = std::tuple<CacheConfig, ReplacementPolicy>;

std::string
oracleCaseName(const ::testing::TestParamInfo<OracleCase> &info)
{
    static const char *const kPolicies[] = {"lru", "fifo", "random"};
    return std::get<0>(info.param).name + "_" +
           kPolicies[static_cast<int>(std::get<1>(info.param))];
}

class CacheOracleTest : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(CacheOracleTest, LockstepWithOriginalModel)
{
    CacheConfig cfg = std::get<0>(GetParam());
    cfg.policy = std::get<1>(GetParam());
    Cache cache(cfg);
    OracleCache oracle(cfg);
    const std::uint64_t sets = cfg.sets();
    // Three quarters of the lines land in a few hot sets with twice
    // as many tags as ways, so every set fills up and evicts; the
    // rest are scattered over a 64 GiB space.
    const std::uint64_t hot_sets = std::min<std::uint64_t>(sets, 61);
    Rng rng(2024);
    for (int step = 0; step < 200000; ++step) {
        const Addr line =
            rng.nextBelow(4) != 0
                ? rng.nextBelow(hot_sets) +
                      sets * rng.nextBelow(2 * cfg.ways)
                : rng.nextBelow(Addr{1} << 30);
        const Addr addr = line * cfg.lineBytes +
                          rng.nextBelow(cfg.lineBytes);
        const std::uint64_t op = rng.nextBelow(10000);
        if (op < 7000) {
            const CacheAccessResult got = cache.access(addr);
            const CacheAccessResult want = oracle.access(addr);
            ASSERT_EQ(got.hit, want.hit) << "step " << step;
            ASSERT_EQ(got.evictedValid, want.evictedValid)
                << "step " << step;
            ASSERT_EQ(got.evictedAddr, want.evictedAddr)
                << "step " << step;
        } else if (op < 8500) {
            const CacheAccessResult got = cache.fill(addr);
            const CacheAccessResult want = oracle.fill(addr);
            ASSERT_EQ(got.hit, want.hit) << "step " << step;
            ASSERT_EQ(got.evictedValid, want.evictedValid)
                << "step " << step;
            ASSERT_EQ(got.evictedAddr, want.evictedAddr)
                << "step " << step;
        } else if (op < 9998) {
            ASSERT_EQ(cache.probe(addr), oracle.probe(addr))
                << "step " << step;
        } else {
            cache.flush();
            oracle.flush();
        }
        ASSERT_EQ(cache.accesses(), oracle.accesses()) << "step " << step;
        ASSERT_EQ(cache.misses(), oracle.misses()) << "step " << step;
    }
    EXPECT_GT(cache.misses(), 0U);
    EXPECT_GT(cache.hits(), 0U);
}

// Lines whose tags sit in the top 2^16 of the 32-bit range (the
// largest legal tag, 2^32 - 2, included), hot sets as above: exercises
// the tag + 1 encoding and evictedAddr reconstruction at the limit.
TEST_P(CacheOracleTest, LockstepNearTagLimit)
{
    CacheConfig cfg = std::get<0>(GetParam());
    cfg.policy = std::get<1>(GetParam());
    Cache cache(cfg);
    OracleCache oracle(cfg);
    const std::uint64_t sets = cfg.sets();
    const std::uint64_t top_tag = 0xFFFFFFFEu;
    const std::uint64_t hot_sets = std::min<std::uint64_t>(sets, 61);
    Rng rng(77);
    for (int step = 0; step < 100000; ++step) {
        const Addr line =
            rng.nextBelow(4) != 0
                ? rng.nextBelow(hot_sets) +
                      sets * (top_tag - rng.nextBelow(2 * cfg.ways))
                : rng.nextBelow(sets) +
                      sets * (top_tag - rng.nextBelow(1 << 16));
        const Addr addr = line * cfg.lineBytes +
                          rng.nextBelow(cfg.lineBytes);
        const std::uint64_t op = rng.nextBelow(10000);
        CacheAccessResult got;
        CacheAccessResult want;
        if (op < 7000) {
            got = cache.access(addr);
            want = oracle.access(addr);
        } else if (op < 8500) {
            got = cache.fill(addr);
            want = oracle.fill(addr);
        } else if (op < 9998) {
            ASSERT_EQ(cache.probe(addr), oracle.probe(addr))
                << "step " << step;
            continue;
        } else {
            cache.flush();
            oracle.flush();
            continue;
        }
        ASSERT_EQ(got.hit, want.hit) << "step " << step;
        ASSERT_EQ(got.evictedValid, want.evictedValid) << "step " << step;
        ASSERT_EQ(got.evictedAddr, want.evictedAddr) << "step " << step;
        ASSERT_EQ(cache.accesses(), oracle.accesses()) << "step " << step;
        ASSERT_EQ(cache.misses(), oracle.misses()) << "step " << step;
    }
    EXPECT_GT(cache.misses(), 0U);
    EXPECT_GT(cache.hits(), 0U);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracleTest,
    ::testing::Combine(
        ::testing::Values(
            CacheConfig{"l1", 32 * kKiB, 8, 64, 1.5,
                        ReplacementPolicy::Lru},
            CacheConfig{"l2", 1 * kMiB, 16, 64, 4.0,
                        ReplacementPolicy::Lru},
            CacheConfig{"llc", 35 * kMiB, 20, 64, 18.0,
                        ReplacementPolicy::Lru}),
        ::testing::Values(ReplacementPolicy::Lru,
                          ReplacementPolicy::Fifo,
                          ReplacementPolicy::Random)),
    oracleCaseName);

// The Broadwell L2: 8 ways fill exactly one 64 B block per set.
INSTANTIATE_TEST_SUITE_P(
    BroadwellL2, CacheOracleTest,
    ::testing::Combine(
        ::testing::Values(CacheConfig{"l2bdw", 256 * kKiB, 8, 64, 5.0,
                                      ReplacementPolicy::Lru}),
        ::testing::Values(ReplacementPolicy::Lru,
                          ReplacementPolicy::Fifo,
                          ReplacementPolicy::Random)),
    oracleCaseName);

// Non-power-of-two set counts on both sides of the divider's 2^16-set
// bound. 81920 sets (24-way 120 MiB): lines below 2^64 / 81920 take
// the multiply-high, the near-limit tags above it the hardware divide.
// 3072 sets (12-way 2.25 MiB): every legal line takes the multiply.
INSTANTIATE_TEST_SUITE_P(
    DividerPaths, CacheOracleTest,
    ::testing::Combine(
        ::testing::Values(CacheConfig{"big24", 120 * kMiB, 24, 64, 20.0,
                                      ReplacementPolicy::Lru},
                          CacheConfig{"mid12", 2304 * kKiB, 12, 64, 10.0,
                                      ReplacementPolicy::Lru}),
        ::testing::Values(ReplacementPolicy::Lru,
                          ReplacementPolicy::Fifo,
                          ReplacementPolicy::Random)),
    oracleCaseName);

} // namespace
} // namespace centaur
