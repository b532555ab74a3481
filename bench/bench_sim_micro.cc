/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * event queue scheduling, cache tag lookups and the all-level miss
 * path, DRAM bank timing, the Zipf sampler, the EB-Streamer gather
 * loop, the functional DLRM pass and the hot-row cache tier. These bound the wall-clock cost
 * of the paper-reproduction sweeps.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/hierarchy.hh"
#include "cachetier/cache_tier.hh"
#include "dlrm/reference_model.hh"
#include "fpga/mlp_unit.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace centaur;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            q.schedule(static_cast<Tick>((i * 7919) % 100000),
                       [&sink] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The allocation-free schedule path: POD fn+ctx events into a
// reserved heap, the representation every engine hot loop uses. The
// gap to BM_EventQueueScheduleRun is the boxed-lambda overhead.
void
BM_EventQueueScheduleDrain(benchmark::State &state)
{
    struct Ctx
    {
        std::uint64_t sink = 0;
        static void
        fire(void *p)
        {
            ++static_cast<Ctx *>(p)->sink;
        }
    };
    for (auto _ : state) {
        EventQueue q;
        q.reserve(1024);
        Ctx ctx;
        for (int i = 0; i < 1024; ++i)
            q.schedule(static_cast<Tick>((i * 7919) % 100000),
                       &Ctx::fire, &ctx);
        q.run();
        benchmark::DoNotOptimize(ctx.sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleDrain);

// The cluster engine's kernel: per-shard heaps merged by lowest
// (tick, seq). Events land round-robin so every step exercises the
// cross-shard merge scan.
void
BM_ShardedEventQueueScheduleDrain(benchmark::State &state)
{
    const auto shards = static_cast<std::uint32_t>(state.range(0));
    struct Ctx
    {
        std::uint64_t sink = 0;
        static void
        fire(void *p)
        {
            ++static_cast<Ctx *>(p)->sink;
        }
    };
    for (auto _ : state) {
        ShardedEventQueue q(shards);
        for (std::uint32_t s = 0; s < shards; ++s)
            q.reserve(s, 1024 / shards + 1);
        Ctx ctx;
        for (int i = 0; i < 1024; ++i)
            q.schedule(static_cast<std::uint32_t>(i) % shards,
                       static_cast<Tick>((i * 7919) % 100000),
                       &Ctx::fire, &ctx);
        q.run();
        benchmark::DoNotOptimize(ctx.sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ShardedEventQueueScheduleDrain)->Arg(4)->Arg(16);

void
BM_CacheRandomAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{"llc", 35 * kMiB, 20, 64, 18.0,
                            ReplacementPolicy::Lru});
    Rng rng(42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextBelow(1 << 28) * 64));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheRandomAccess);

// The embedding gather's common case: random lines over a 4 GiB
// footprint miss and allocate at L1, L2 and the LLC.
void
BM_HierarchyMissPath(benchmark::State &state)
{
    CacheHierarchy hier(broadwellHierarchyConfig());
    Rng rng(42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hier.access(rng.nextBelow(1 << 26) * 64));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyMissPath);

// The embedding gather's access pattern: random 2-line rows over a
// 4 GiB table through the Broadwell hierarchy. Arg 1 hints each row's
// set blocks kSetPrefetchDistance rows ahead, as GatherEngine does;
// Arg 0 does not. The gap is the host latency the hint hides.
void
BM_GatherRows(benchmark::State &state)
{
    CacheHierarchy hier(broadwellHierarchyConfig());
    const std::size_t distance = state.range(0) ? kSetPrefetchDistance : 0;
    Rng rng(42);
    std::vector<Addr> rows(std::size_t{1} << 16);
    for (Addr &row : rows)
        row = rng.nextBelow(std::uint64_t{1} << 25) * 128;
    const std::size_t mask = rows.size() - 1;
    std::size_t i = 0;
    for (auto _ : state) {
        if (distance != 0) {
            const Addr ahead = rows[(i + distance) & mask];
            hier.prefetch(ahead);
            hier.prefetch(ahead + 64);
        }
        const Addr row = rows[i & mask];
        benchmark::DoNotOptimize(hier.access(row));
        benchmark::DoNotOptimize(hier.access(row + 64));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GatherRows)->Arg(0)->Arg(1);

void
BM_DramRandomAccess(benchmark::State &state)
{
    DramModel dram;
    Rng rng(42);
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.access(rng.nextBelow(1 << 24) * 64, t));
        t += 5000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRandomAccess);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 0.9);
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1 << 12)->Arg(1 << 20);

// The workload generator's sampler: O(1) alias-table draws at any
// population size, vs BM_ZipfSample's O(log n) CDF search (small n)
// or approximate analytical inversion (large n).
void
BM_ZipfAliasSample(benchmark::State &state)
{
    ZipfAliasSampler zipf(static_cast<std::uint64_t>(state.range(0)),
                          0.9);
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfAliasSample)->Arg(1 << 12)->Arg(1 << 20);

// Zipf batch synthesis end to end (dominated by the per-index draw;
// this is the loop the alias table accelerates).
void
BM_WorkloadZipfBatch(benchmark::State &state)
{
    const DlrmConfig cfg = dlrmPreset(1);
    WorkloadConfig wl;
    wl.batch = 16;
    wl.dist = IndexDistribution::Zipf;
    wl.zipfSkew = 0.9;
    WorkloadGenerator gen(cfg, wl);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations() * cfg.totalLookups(16));
}
BENCHMARK(BM_WorkloadZipfBatch);

void
BM_MlpUnitGemmTiming(benchmark::State &state)
{
    CentaurConfig cfg;
    MlpUnit unit(cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.gemm(128, 512, 240, 0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpUnitGemmTiming);

// The functional DLRM pass every System::infer runs: pooled
// embedding reduction plus both MLPs on materialized weights.
void
BM_ReferenceForward(benchmark::State &state)
{
    const DlrmConfig cfg = dlrmPreset(static_cast<int>(state.range(0)));
    ReferenceModel model(cfg);
    WorkloadConfig wl;
    wl.batch = 4;
    WorkloadGenerator gen(cfg, wl);
    const InferenceBatch batch = gen.next();
    for (auto _ : state)
        benchmark::DoNotOptimize(model.forward(batch));
    state.SetItemsProcessed(state.iterations() * wl.batch);
}
BENCHMARK(BM_ReferenceForward)->Arg(1)->Arg(6);

// Pooling one synthesized row: one hash round per element on top of
// the row's hoisted prefix.
void
BM_EmbeddingAccumulateRow(benchmark::State &state)
{
    const VirtualEmbeddingTable table(0, 1000000, 32, 0);
    std::vector<float> out(table.dim(), 0.0f);
    std::uint64_t row = 0;
    for (auto _ : state) {
        table.accumulateRow(row, out.data());
        row = (row + 7919) % table.rows();
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(out.data());
    state.SetItemsProcessed(state.iterations() * table.dim());
}
BENCHMARK(BM_EmbeddingAccumulateRow);

// The hot-row tier's per-lookup bookkeeping on dlrm1 traffic.
// Arg 0: LRU cache:16 on zipf:1.1, hit-heavy (the cluster_zipf tier).
// Arg 1: slru+ghost cache:1 on zipf:0.6, eviction-heavy.
void
BM_CacheTierAnnotate(benchmark::State &state)
{
    const bool evicting = state.range(0) == 1;
    const DlrmConfig cfg = dlrmPreset(1);
    WorkloadConfig wl;
    wl.batch = 16;
    wl.dist = IndexDistribution::Zipf;
    wl.zipfSkew = evicting ? 0.6 : 1.1;
    WorkloadGenerator gen(cfg, wl);
    std::vector<InferenceBatch> batches;
    for (int i = 0; i < 64; ++i)
        batches.push_back(gen.next());

    CacheTierConfig tier_cfg;
    tier_cfg.capacityMB = evicting ? 1.0 : 16.0;
    tier_cfg.policy = evicting ? CachePolicy::Slru : CachePolicy::Lru;
    tier_cfg.ghost = evicting;
    CacheTier tier(tier_cfg,
                   static_cast<std::uint32_t>(cfg.vectorBytes()));
    for (const InferenceBatch &b : batches) // warm the tier
        tier.annotate(b);
    for (auto _ : state)
        for (const InferenceBatch &b : batches)
            benchmark::DoNotOptimize(tier.annotate(b));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(batches.size()) *
                            cfg.totalLookups(wl.batch));
}
BENCHMARK(BM_CacheTierAnnotate)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
