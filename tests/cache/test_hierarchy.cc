/**
 * @file
 * Unit tests for the L1/L2/LLC hierarchy model.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

TEST(Hierarchy, BroadwellGeometryMatchesTheEvaluationCpu)
{
    const auto cfg = broadwellHierarchyConfig();
    EXPECT_EQ(cfg.l1.sizeBytes, 32 * kKiB);
    EXPECT_EQ(cfg.l2.sizeBytes, 256 * kKiB);
    EXPECT_EQ(cfg.llc.sizeBytes, 35 * kMiB);
    EXPECT_EQ(cfg.llc.ways, 20u);
}

TEST(Hierarchy, ColdAccessGoesToMemory)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    const auto r = h.access(0x1000);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_GT(r.latency, ticksFromNs(20.0));
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0x1000);
    const auto r = h.access(0x1000);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_LT(r.latency, ticksFromNs(3.0));
}

TEST(Hierarchy, L1EvictionFallsBackToL2)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    // Evict line 0 from L1 (32 KB) without evicting from L2 (256 KB).
    for (Addr line = 1; line <= 1024; ++line)
        h.access(line * 64);
    const auto r = h.access(0);
    EXPECT_EQ(r.level, HitLevel::L2);
}

TEST(Hierarchy, L2EvictionFallsBackToLlc)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    for (Addr line = 1; line <= 2 * 4096; ++line)
        h.access(line * 64);
    const auto r = h.access(0);
    EXPECT_EQ(r.level, HitLevel::Llc);
}

TEST(Hierarchy, HitRefillsUpperLevels)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    for (Addr line = 1; line <= 1024; ++line)
        h.access(line * 64);
    h.access(0); // L2 hit, refills L1
    const auto r = h.access(0);
    EXPECT_EQ(r.level, HitLevel::L1);
}

TEST(Hierarchy, LatencyIncreasesWithDepth)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    const auto mem = h.access(0);   // memory
    const auto l1 = h.access(0);    // L1
    EXPECT_GT(mem.latency, l1.latency);
}

TEST(Hierarchy, WarmMakesLinesL1Resident)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.warm(0x2000);
    EXPECT_EQ(h.access(0x2000).level, HitLevel::L1);
    EXPECT_EQ(h.l1().accesses(), 1u);
}

TEST(Hierarchy, WarmRangeCoversAllLines)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.warmRange(0, 64 * 16);
    for (Addr line = 0; line < 16; ++line)
        EXPECT_EQ(h.access(line * 64).level, HitLevel::L1);
}

TEST(Hierarchy, AccessRangeReportsDeepestLevel)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.warmRange(0, 128);
    // First two lines warm, third cold -> worst level is Memory.
    const auto r = h.accessRange(0, 192);
    EXPECT_EQ(r.level, HitLevel::Memory);
}

TEST(Hierarchy, FlushForcesMisses)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    h.flush();
    EXPECT_EQ(h.access(0).level, HitLevel::Memory);
}

TEST(Hierarchy, ResetStatsZeroesCounters)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    h.resetStats();
    EXPECT_EQ(h.llc().accesses(), 0u);
    EXPECT_EQ(h.l1().accesses(), 0u);
}

TEST(Hierarchy, MlpWeightsStayResident)
{
    // A 57 KB weight set (Table I) comfortably lives in L2/LLC: the
    // mechanism behind the paper's <20% MLP miss rates.
    CacheHierarchy h(broadwellHierarchyConfig());
    const std::uint64_t weights = 57 * kKiB;
    h.warmRange(0, weights);
    h.llc().resetStats();
    h.accessRange(0, weights);
    EXPECT_DOUBLE_EQ(h.llc().missRate(), 0.0);
}

// prefetch() is a host-only hint: a hierarchy sent hints on random
// lines between its accesses must classify every access, and count
// every level, exactly as an unhinted twin does.
TEST(Hierarchy, PrefetchChangesNothing)
{
    CacheHierarchy hinted(broadwellHierarchyConfig());
    CacheHierarchy plain(broadwellHierarchyConfig());
    Rng rng(5);
    for (int step = 0; step < 100000; ++step) {
        hinted.prefetch(rng.nextBelow(Addr{1} << 36));
        // Half the stream revisits a 1 MiB hot region so every level
        // both hits and misses.
        const Addr addr = rng.nextBelow(2) != 0
                              ? rng.nextBelow(1 * kMiB)
                              : rng.nextBelow(Addr{1} << 34);
        const HierarchyAccessResult got = hinted.access(addr);
        const HierarchyAccessResult want = plain.access(addr);
        ASSERT_EQ(got.level, want.level) << "step " << step;
        ASSERT_EQ(got.latency, want.latency) << "step " << step;
    }
    for (int lvl = 0; lvl < 3; ++lvl) {
        Cache &a = lvl == 0 ? hinted.l1() : lvl == 1 ? hinted.l2()
                                                     : hinted.llc();
        Cache &b = lvl == 0 ? plain.l1() : lvl == 1 ? plain.l2()
                                                    : plain.llc();
        EXPECT_EQ(a.accesses(), b.accesses()) << "level " << lvl;
        EXPECT_EQ(a.misses(), b.misses()) << "level " << lvl;
        EXPECT_GT(a.hits(), 0U) << "level " << lvl;
        EXPECT_GT(a.misses(), 0U) << "level " << lvl;
    }
}

} // namespace
} // namespace centaur
