/**
 * @file
 * Unit and property tests for the CPU gather-engine timing model -
 * the machinery behind Figures 5-7.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cpu/gather_engine.hh"
#include "mem/dram.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

DlrmConfig
tinyModel(std::uint32_t tables = 2, std::uint32_t lookups = 8)
{
    DlrmConfig cfg;
    cfg.numTables = tables;
    cfg.lookupsPerTable = lookups;
    cfg.rowsPerTable = 50000;
    return cfg;
}

struct Rig
{
    explicit Rig(const DlrmConfig &cfg)
        : model(cfg), hier(broadwellHierarchyConfig()),
          engine(cpu, hier, dram)
    {
    }

    GatherResult
    run(std::uint32_t batch, std::uint64_t seed = 3)
    {
        WorkloadConfig wl;
        wl.batch = batch;
        wl.seed = seed;
        WorkloadGenerator gen(model.config(), wl);
        const auto b = gen.next();
        return engine.run(model, b, 0);
    }

    CpuConfig cpu;
    ReferenceModel model;
    CacheHierarchy hier;
    DramModel dram;
    GatherEngine engine;
};

TEST(GatherEngine, AccountsAllBytes)
{
    Rig rig(tinyModel());
    const auto g = rig.run(4);
    EXPECT_EQ(g.lookups, 2u * 4u * 8u);
    EXPECT_EQ(g.bytesGathered, g.lookups * 128u);
}

TEST(GatherEngine, LatencyIsPositiveAndOrdered)
{
    Rig rig(tinyModel());
    const auto g = rig.run(1);
    EXPECT_GT(g.end, g.start);
}

TEST(GatherEngine, ThreadsScaleWithBatchNotTables)
{
    // PyTorch parallelizes EmbeddingBag over the batch dimension.
    Rig rig(tinyModel(10, 8));
    EXPECT_EQ(rig.run(1).threadsUsed, 1u);
    EXPECT_EQ(rig.run(4).threadsUsed, 4u);
    EXPECT_EQ(rig.run(64).threadsUsed, rig.cpu.cores);
}

TEST(GatherEngine, MoreLookupsTakeLonger)
{
    Rig small(tinyModel(2, 8));
    Rig large(tinyModel(2, 64));
    EXPECT_GT(large.run(4).latency(), small.run(4).latency());
}

TEST(GatherEngine, EffectiveThroughputImprovesWithBatch)
{
    // The central Fig 7 trend: batch-1 gathers underuse memory
    // bandwidth; larger batches recruit more threads.
    Rig rig(tinyModel(4, 40));
    const double t1 = rig.run(1).effectiveGBps();
    Rig rig2(tinyModel(4, 40));
    const double t64 = rig2.run(64).effectiveGBps();
    EXPECT_GT(t64, t1 * 3.0);
}

TEST(GatherEngine, ThroughputStaysFarBelowDramPeak)
{
    // The paper's headline CPU finding: even at batch 128 the
    // effective gather throughput is far below the 77 GB/s peak.
    Rig rig(tinyModel(4, 80));
    const auto g = rig.run(128);
    EXPECT_LT(g.effectiveGBps(),
              rig.dram.config().peakBandwidthGBps() * 0.45);
    EXPECT_GT(g.effectiveGBps(), 2.0);
}

TEST(GatherEngine, LlcMissRateIsHighForColdTables)
{
    Rig rig(tinyModel(4, 80));
    const auto g = rig.run(64);
    EXPECT_GT(g.llcMissRate(), 0.5);
}

TEST(GatherEngine, WarmLlcSizedTableHitsInCache)
{
    DlrmConfig cfg = tinyModel(1, 32);
    cfg.rowsPerTable = 32768; // 4 MB: exceeds L2, fits the LLC
    Rig rig(cfg);
    (void)rig.run(16, 1); // warm the exact rows (same seed below)
    const auto g = rig.run(16, 1);
    EXPECT_LT(g.llcMissRate(), 0.3);
}

TEST(GatherEngine, InstructionDeltaTracksLookups)
{
    const CpuConfig cpu;
    Rig rig(tinyModel(2, 8));
    const auto g1 = rig.run(1);
    Rig rig2(tinyModel(2, 8));
    const auto g8 = rig2.run(8);
    // Fixed per-operator dispatch instructions cancel in the delta;
    // what remains is per-lookup work.
    const auto delta = g8.instructions - g1.instructions;
    const auto expected =
        (g8.lookups - g1.lookups) *
        (cpu.instrPerLookup + cpu.instrPerIndex);
    EXPECT_NEAR(static_cast<double>(delta),
                static_cast<double>(expected),
                0.2 * static_cast<double>(expected));
}

TEST(GatherEngine, MpkiIsPositiveForSparseGathers)
{
    Rig rig(tinyModel(4, 80));
    const auto g = rig.run(32);
    EXPECT_GT(g.mpki(), 1.0);
}

TEST(GatherEngine, StatsDeltasMatchHierarchy)
{
    Rig rig(tinyModel());
    const auto before = rig.hier.llc().accesses();
    const auto g = rig.run(4);
    EXPECT_EQ(g.llcAccesses,
              rig.hier.llc().accesses() - before);
}

TEST(GatherEngine, DeterministicTiming)
{
    Rig a(tinyModel());
    Rig b(tinyModel());
    EXPECT_EQ(a.run(8).latency(), b.run(8).latency());
}

// Extra set-prefetch hints on random lines between runs (on top of
// the engine's own lookahead hints) change no result, counter or
// tick: runs chained on the previous run's end stay in lockstep.
TEST(GatherEngine, PrefetchHintsChangeNothing)
{
    Rig hinted(tinyModel(3, 20));
    Rig plain(tinyModel(3, 20));
    Rng rng(8);
    Tick hinted_now = 0;
    Tick plain_now = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        for (int i = 0; i < 2000; ++i)
            hinted.hier.prefetch(rng.nextBelow(Addr{1} << 36));
        WorkloadConfig wl;
        wl.batch = 1 + static_cast<std::uint32_t>(seed * 5 % 32);
        wl.seed = seed;
        WorkloadGenerator gen(hinted.model.config(), wl);
        const auto batch = gen.next();
        const GatherResult a =
            hinted.engine.run(hinted.model, batch, hinted_now);
        const GatherResult b =
            plain.engine.run(plain.model, batch, plain_now);
        ASSERT_EQ(a.start, b.start) << "seed " << seed;
        ASSERT_EQ(a.end, b.end) << "seed " << seed;
        ASSERT_EQ(a.lookups, b.lookups) << "seed " << seed;
        ASSERT_EQ(a.bytesGathered, b.bytesGathered) << "seed " << seed;
        ASSERT_EQ(a.instructions, b.instructions) << "seed " << seed;
        ASSERT_EQ(a.llcAccesses, b.llcAccesses) << "seed " << seed;
        ASSERT_EQ(a.llcMisses, b.llcMisses) << "seed " << seed;
        ASSERT_EQ(a.threadsUsed, b.threadsUsed) << "seed " << seed;
        hinted_now = a.end;
        plain_now = b.end;
    }
    EXPECT_EQ(hinted.dram.reads(), plain.dram.reads());
    EXPECT_EQ(hinted.dram.rowHits(), plain.dram.rowHits());
    EXPECT_EQ(hinted.hier.l1().misses(), plain.hier.l1().misses());
    EXPECT_EQ(hinted.hier.l2().misses(), plain.hier.l2().misses());
}

} // namespace
} // namespace centaur
