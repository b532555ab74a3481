/**
 * @file
 * Integration tests for SystemBuilder/ComposedSystem: the three
 * canned paper presets must reproduce the monolithic reference
 * classes exactly (latency, every phase, energy, cache statistics,
 * probabilities) at every Table I preset, the makeSystem shim must
 * be byte-compatible, a timing-only system must match a full one in
 * every timing field, and the new backend pairings must behave
 * according to the paper's qualitative orderings.
 */

#include <gtest/gtest.h>

#include <memory>

// The monolithic reference classes are reached through the
// consolidated legacy surface.
#include "cachetier/cache_report.hh"
#include "core/backend.hh"
#include "core/compat.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/server.hh"
#include "core/system.hh"
#include "core/system_builder.hh"
#include "dlrm/workload_spec.hh"

namespace centaur {
namespace {

InferenceBatch
makeBatch(const DlrmConfig &cfg, std::uint32_t batch,
          std::uint64_t seed = 9)
{
    WorkloadConfig wl;
    wl.batch = batch;
    wl.seed = seed;
    WorkloadGenerator gen(cfg, wl);
    return gen.next();
}

/** Every metric of @p a equals @p b (exact, not approximate). */
void
expectIdenticalResults(const InferenceResult &a,
                       const InferenceResult &b,
                       const std::string &context)
{
    SCOPED_TRACE(context);
    EXPECT_EQ(a.design, b.design);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.latency(), b.latency());
    for (std::size_t p = 0; p < kNumPhases; ++p)
        EXPECT_EQ(a.phase[p], b.phase[p])
            << phaseName(static_cast<Phase>(p));
    EXPECT_DOUBLE_EQ(a.effectiveEmbGBps, b.effectiveEmbGBps);
    EXPECT_EQ(a.emb.instructions, b.emb.instructions);
    EXPECT_EQ(a.emb.llcAccesses, b.emb.llcAccesses);
    EXPECT_EQ(a.emb.llcMisses, b.emb.llcMisses);
    EXPECT_EQ(a.mlp.instructions, b.mlp.instructions);
    EXPECT_EQ(a.mlp.llcAccesses, b.mlp.llcAccesses);
    EXPECT_EQ(a.mlp.llcMisses, b.mlp.llcMisses);
    EXPECT_DOUBLE_EQ(a.powerWatts, b.powerWatts);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
    for (std::size_t i = 0; i < a.probabilities.size(); ++i)
        EXPECT_FLOAT_EQ(a.probabilities[i], b.probabilities[i]);
}

/**
 * Run the monolithic reference and the composed preset through the
 * same two-inference sequence (state advances between inferences;
 * both runs must stay in lockstep).
 */
void
expectPresetEquivalence(System &reference, const std::string &spec,
                        const DlrmConfig &cfg, std::uint32_t batch)
{
    auto composed = SystemBuilder().spec(spec).model(cfg).build();
    EXPECT_EQ(composed->spec(), spec);
    for (std::uint64_t seed : {7ull, 8ull}) {
        const InferenceBatch b = makeBatch(cfg, batch, seed);
        const InferenceResult rr = reference.infer(b);
        const InferenceResult rc = composed->infer(b);
        expectIdenticalResults(
            rr, rc,
            spec + " preset " + cfg.name + " batch " +
                std::to_string(batch) + " seed " +
                std::to_string(seed));
        EXPECT_EQ(rc.spec, spec);
    }
}

TEST(ComposedSystem, CpuPresetReproducesCpuOnlyAtEveryPreset)
{
    for (int preset = 1; preset <= 6; ++preset) {
        const DlrmConfig cfg = dlrmPreset(preset);
        CpuOnlySystem reference(cfg);
        expectPresetEquivalence(reference, "cpu", cfg, 4);
    }
}

TEST(ComposedSystem, CpuGpuPresetReproducesCpuGpuAtEveryPreset)
{
    for (int preset = 1; preset <= 6; ++preset) {
        const DlrmConfig cfg = dlrmPreset(preset);
        CpuGpuSystem reference(cfg);
        expectPresetEquivalence(reference, "cpu+gpu", cfg, 4);
    }
}

TEST(ComposedSystem, CpuFpgaPresetReproducesCentaurAtEveryPreset)
{
    for (int preset = 1; preset <= 6; ++preset) {
        const DlrmConfig cfg = dlrmPreset(preset);
        CentaurSystem reference(cfg);
        expectPresetEquivalence(reference, "cpu+fpga", cfg, 4);
    }
}

TEST(ComposedSystem, PresetEquivalenceHoldsAtLargeBatchToo)
{
    const DlrmConfig cfg = dlrmPreset(1);
    CpuOnlySystem cpu(cfg);
    expectPresetEquivalence(cpu, "cpu", cfg, 64);
    CpuGpuSystem gpu(cfg);
    expectPresetEquivalence(gpu, "cpu+gpu", cfg, 64);
    CentaurSystem cen(cfg);
    expectPresetEquivalence(cen, "cpu+fpga", cfg, 64);
}

TEST(ComposedSystem, MakeSystemConvenienceIsTheBuilder)
{
    const DlrmConfig cfg = dlrmPreset(1);
    for (DesignPoint dp : {DesignPoint::CpuOnly, DesignPoint::CpuGpu,
                           DesignPoint::Centaur}) {
        auto via_factory = makeSystem(specForDesign(dp), cfg);
        auto via_builder = SystemBuilder()
                               .spec(specForDesign(dp))
                               .model(cfg)
                               .build();
        EXPECT_EQ(via_factory->design(), dp);
        EXPECT_EQ(via_factory->spec(), via_builder->spec());
        const InferenceBatch b = makeBatch(cfg, 8);
        expectIdenticalResults(via_factory->infer(b),
                               via_builder->infer(b),
                               via_factory->spec());
    }
}

TEST(ComposedSystem, EveryRegisteredSpecRunsAndAccountsPhases)
{
    const DlrmConfig cfg = dlrmPreset(1);
    for (const std::string &spec : registeredSpecs()) {
        auto sys = makeSystem(spec, cfg);
        const InferenceBatch b = makeBatch(cfg, 8);
        const InferenceResult r = sys->infer(b);
        SCOPED_TRACE(spec);
        EXPECT_EQ(r.spec, spec);
        EXPECT_GT(r.latency(), 0u);
        Tick sum = 0;
        for (std::size_t p = 0; p < kNumPhases; ++p)
            sum += r.phase[p];
        EXPECT_EQ(sum, r.latency());
        EXPECT_GT(r.powerWatts, 0.0);
        EXPECT_NEAR(r.energyJoules,
                    r.powerWatts * secFromTicks(r.latency()), 1e-12);
        EXPECT_GT(r.effectiveEmbGBps, 0.0);

        // Functional outputs track the reference model: exact for
        // CPU/GPU sigmoid paths, LUT-accurate on FPGA MLP stages.
        auto reference = makeSystem("cpu", cfg);
        const InferenceResult golden = reference->infer(b);
        ASSERT_EQ(r.probabilities.size(), golden.probabilities.size());
        for (std::size_t i = 0; i < r.probabilities.size(); ++i)
            EXPECT_NEAR(r.probabilities[i], golden.probabilities[i],
                        2e-3f);
    }
}

/** toJson(@p res) without the one field the functional pass owns. */
std::string
timingJson(const InferenceResult &res)
{
    Json j = toJson(res);
    j["num_probabilities"] = 0;
    return j.dump();
}

TEST(ComposedSystem, TimingOnlyMatchesFullInEveryTimingField)
{
    // Skipping the functional pass must not move a single timing,
    // stat, tier or energy field, over a stream long enough for the
    // caches, the tier and the internal clock to carry state.
    const DlrmConfig cfg = dlrmPreset(1);
    constexpr std::uint32_t kBatch = 8;
    std::vector<std::string> specs = registeredSpecs();
    specs.push_back("cpu+fpga/cache:4");
    for (const char *workload : {"uniform", "zipf:1.1"}) {
        for (const std::string &spec : specs) {
            SCOPED_TRACE(spec + " " + workload);
            auto full =
                SystemBuilder().spec(spec).model(cfg).build();
            auto timing = SystemBuilder()
                              .spec(spec)
                              .model(cfg)
                              .functional(false)
                              .build();
            WorkloadConfig wl = parseWorkloadSpec(workload);
            wl.batch = kBatch;
            wl.seed = 5;
            WorkloadGenerator gen(cfg, wl);
            for (int i = 0; i < 40; ++i) {
                // One copy per system: the tier annotates the batch.
                const InferenceBatch b = gen.next();
                const InferenceBatch b_copy = b;
                const InferenceResult rf = full->infer(b);
                const InferenceResult rt = timing->infer(b_copy);
                ASSERT_EQ(timingJson(rf), timingJson(rt)) << "batch " << i;
                EXPECT_EQ(rf.start, rt.start);
                EXPECT_EQ(rf.end, rt.end);
                EXPECT_EQ(rf.cacheHits, rt.cacheHits);
                EXPECT_EQ(rf.cacheMisses, rt.cacheMisses);
                EXPECT_EQ(rf.cacheSavedTicks, rt.cacheSavedTicks);
                ASSERT_EQ(full->now(), timing->now());
                EXPECT_EQ(rf.probabilities.size(), kBatch);
                EXPECT_TRUE(rt.probabilities.empty());
            }
            ASSERT_EQ(full->cacheTier() != nullptr,
                      timing->cacheTier() != nullptr);
            if (full->cacheTier()) {
                EXPECT_EQ(toJson(full->cacheTier()->stats()).dump(),
                          toJson(timing->cacheTier()->stats()).dump());
                EXPECT_EQ(full->cacheTier()->residentKeys(),
                          timing->cacheTier()->residentKeys());
            }
        }
    }
}

TEST(ComposedSystem, OnlyServingWorkersSkipTheFunctionalPass)
{
    const DlrmConfig cfg = dlrmPreset(1);
    WorkloadConfig wl;
    wl.batch = 4;
    WorkloadGenerator gen(cfg, wl);
    const InferenceBatch b = gen.next();

    ServingConfig serving;
    serving.workers = 2;
    for (auto &worker : makeWorkers("cpu+fpga", cfg, serving))
        EXPECT_TRUE(worker->infer(b).probabilities.empty());
    serving.workerSpecs = {"cpu", "cpu+gpu/cache:4"};
    for (auto &worker : makeWorkers("cpu+fpga", cfg, serving))
        EXPECT_TRUE(worker->infer(b).probabilities.empty());

    EXPECT_EQ(makeSystem("cpu+fpga", cfg)->infer(b).probabilities.size(),
              4u);
    const std::vector<SweepEntry> sweep =
        runSweep(Scenario{"cpu+fpga", "dlrm1", "uniform"}, {1, 16});
    ASSERT_EQ(sweep.size(), 2u);
    for (const SweepEntry &e : sweep)
        EXPECT_EQ(e.result.probabilities.size(), e.batch);
}

TEST(ComposedSystem, InternalClockAdvancesAcrossInferences)
{
    const DlrmConfig cfg = dlrmPreset(1);
    for (const char *spec : {"gpu", "gpu+fpga", "fpga+fpga"}) {
        auto sys = makeSystem(spec, cfg);
        const auto r1 = sys->infer(makeBatch(cfg, 2, 1));
        const auto r2 = sys->infer(makeBatch(cfg, 2, 2));
        EXPECT_GE(r2.start, r1.end) << spec;
    }
}

TEST(ComposedSystem, FpgaMlpStagesBeatCpuMlpOnceBatched)
{
    // The spec_matrix CI invariant, at test scale: any FPGA-resident
    // MLP stage outruns the CPU MLP stage at batch >= 64, wherever
    // its embeddings come from.
    const DlrmConfig cfg = dlrmPreset(1);
    const InferenceBatch b = makeBatch(cfg, 64);
    const Tick cpu_mlp =
        makeSystem("cpu", cfg)->infer(b).phaseTicks(Phase::Mlp);
    for (const char *spec :
         {"cpu+fpga", "gpu+fpga", "fpga+fpga"}) {
        const Tick mlp =
            makeSystem(spec, cfg)->infer(b).phaseTicks(Phase::Mlp);
        EXPECT_LT(mlp, cpu_mlp) << spec;
    }
}

TEST(ComposedSystem, PackageIntegrationBeatsTheDiscretePairings)
{
    // The paper's architectural argument, now measurable: the
    // in-package pairing overlaps EMB with the bottom MLP and pays
    // no PCIe hops, so it must beat both discrete fpga pairings
    // end to end.
    const DlrmConfig cfg = dlrmPreset(1);
    const InferenceBatch b = makeBatch(cfg, 16);
    const Tick integrated =
        makeSystem("cpu+fpga", cfg)->infer(b).latency();
    for (const char *spec : {"gpu+fpga", "fpga+fpga"}) {
        const Tick discrete =
            makeSystem(spec, cfg)->infer(b).latency();
        EXPECT_LT(integrated, discrete) << spec;
    }
}

TEST(ComposedSystem, PcieGatherCapsTheGpuSparseStage)
{
    // A PCIe-fed gather cannot approach the coherent EB-Streamer's
    // effective bandwidth - the reason the paper pairs the FPGA
    // with the CPU package in the first place.
    const DlrmConfig cfg = dlrmPreset(4);
    const InferenceBatch b = makeBatch(cfg, 64);
    const double gpu_gbps =
        makeSystem("gpu", cfg)->infer(b).effectiveEmbGBps;
    const double eb_gbps =
        makeSystem("cpu+fpga", cfg)->infer(b).effectiveEmbGBps;
    EXPECT_GT(gpu_gbps, 0.0);
    EXPECT_GT(eb_gbps, 2.0 * gpu_gbps);
}

TEST(ComposedSystemDeath, PackageFpgaMlpNeedsTheEbStreamer)
{
    // A hand-assembled spec that puts a Package-placed FPGA MLP
    // behind a CPU gather has no streamer to write back through.
    SystemSpec bad;
    bad.emb = EmbBackendKind::CpuGather;
    bad.mlp = MlpBackendKind::Fpga;
    bad.placement = MlpPlacement::Package;
    EXPECT_DEATH((void)SystemBuilder()
                     .spec(bad)
                     .model(dlrmPreset(1))
                     .build(),
                 "EB-Streamer");
}

} // namespace
} // namespace centaur
