/**
 * @file
 * Unit tests for the workload generator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "dlrm/trace.hh"
#include "dlrm/workload.hh"

namespace centaur {
namespace {

DlrmConfig
tinyModel()
{
    DlrmConfig cfg;
    cfg.numTables = 3;
    cfg.lookupsPerTable = 4;
    cfg.rowsPerTable = 1000;
    return cfg;
}

TEST(Workload, ShapesMatchConfig)
{
    WorkloadConfig wl;
    wl.batch = 8;
    WorkloadGenerator gen(tinyModel(), wl);
    const auto batch = gen.next();
    EXPECT_EQ(batch.batch, 8u);
    EXPECT_EQ(batch.lookupsPerTable, 4u);
    ASSERT_EQ(batch.indices.size(), 3u);
    for (const auto &t : batch.indices)
        EXPECT_EQ(t.size(), 32u); // 8 samples x 4 lookups
    EXPECT_EQ(batch.dense.size(), 8u * 13u);
}

TEST(Workload, IndicesWithinTableRange)
{
    WorkloadConfig wl;
    wl.batch = 64;
    WorkloadGenerator gen(tinyModel(), wl);
    const auto batch = gen.next();
    for (const auto &t : batch.indices)
        for (auto idx : t)
            EXPECT_LT(idx, 1000u);
}

TEST(Workload, DeterministicUnderSeed)
{
    WorkloadConfig wl;
    wl.batch = 4;
    wl.seed = 77;
    WorkloadGenerator a(tinyModel(), wl);
    WorkloadGenerator b(tinyModel(), wl);
    const auto ba = a.next();
    const auto bb = b.next();
    EXPECT_EQ(ba.indices, bb.indices);
    EXPECT_EQ(ba.dense, bb.dense);
}

TEST(Workload, StreamAdvances)
{
    WorkloadConfig wl;
    wl.batch = 4;
    WorkloadGenerator gen(tinyModel(), wl);
    const auto b1 = gen.next();
    const auto b2 = gen.next();
    EXPECT_NE(b1.indices, b2.indices);
}

TEST(Workload, SeedsProduceDifferentStreams)
{
    WorkloadConfig a;
    a.batch = 4;
    a.seed = 1;
    WorkloadConfig b = a;
    b.seed = 2;
    WorkloadGenerator ga(tinyModel(), a);
    WorkloadGenerator gb(tinyModel(), b);
    EXPECT_NE(ga.next().indices, gb.next().indices);
}

TEST(Workload, DenseFeaturesWithinRange)
{
    WorkloadConfig wl;
    wl.batch = 16;
    WorkloadGenerator gen(tinyModel(), wl);
    for (float v : gen.next().dense) {
        EXPECT_GE(v, -1.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(Workload, TotalLookupsAndBytes)
{
    WorkloadConfig wl;
    wl.batch = 8;
    WorkloadGenerator gen(tinyModel(), wl);
    const auto batch = gen.next();
    EXPECT_EQ(batch.totalLookups(), 3u * 8u * 4u);
    EXPECT_EQ(batch.gatheredBytes(128), 3u * 8u * 4u * 128u);
}

TEST(Workload, ZipfSkewsTowardPopularRows)
{
    DlrmConfig cfg = tinyModel();
    cfg.lookupsPerTable = 64;
    WorkloadConfig wl;
    wl.batch = 64;
    wl.dist = IndexDistribution::Zipf;
    wl.zipfSkew = 1.0;
    WorkloadGenerator gen(cfg, wl);
    const auto batch = gen.next();
    std::map<std::uint64_t, int> counts;
    for (auto idx : batch.indices[0])
        ++counts[idx];
    // Top-10 rows should draw far more than 1% of lookups.
    int head = 0;
    for (std::uint64_t r = 0; r < 10; ++r)
        head += counts.count(r) ? counts[r] : 0;
    EXPECT_GT(head,
              static_cast<int>(batch.indices[0].size()) / 20);
}

/** RAII temp file holding trace text. */
class TempTrace
{
  public:
    explicit TempTrace(const std::string &text)
        : _path(::testing::TempDir() + "workload_trace_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()
                        ->random_seed()) +
                "_" + std::to_string(counter()++) + ".trace")
    {
        std::ofstream os(_path);
        os << text;
    }
    ~TempTrace() { std::remove(_path.c_str()); }
    const std::string &path() const { return _path; }

  private:
    static int &counter()
    {
        static int n = 0;
        return n;
    }
    std::string _path;
};

TEST(Workload, TraceReplayIsBitIdenticalToTheRecording)
{
    const DlrmConfig cfg = tinyModel();
    WorkloadConfig synth;
    synth.batch = 4;
    synth.dist = IndexDistribution::Zipf;
    synth.zipfSkew = 1.0;
    synth.seed = 9;
    const TempTrace trace(captureTrace(cfg, synth, 3));

    WorkloadGenerator source(cfg, synth);
    WorkloadConfig replay;
    replay.batch = synth.batch; // re-batch to the recorded size
    replay.dist = IndexDistribution::Trace;
    replay.tracePath = trace.path();
    WorkloadGenerator gen(cfg, replay);
    EXPECT_EQ(gen.traceSamples(), 3u * synth.batch);

    for (int i = 0; i < 3; ++i) {
        const InferenceBatch want = source.next();
        const InferenceBatch got = gen.next();
        EXPECT_EQ(got.indices, want.indices);
        EXPECT_EQ(got.dense, want.dense); // exact float round trip
    }
}

TEST(Workload, TraceReplayRebatchesTheSampleStream)
{
    // The recording fixes the samples; the runner owns the batch
    // axis. A batch-4 recording replayed at batch 2 yields the same
    // sample stream, split differently.
    const DlrmConfig cfg = tinyModel();
    WorkloadConfig synth;
    synth.batch = 4;
    synth.seed = 13;
    const TempTrace trace(captureTrace(cfg, synth, 1));

    WorkloadConfig replay;
    replay.batch = 2;
    replay.dist = IndexDistribution::Trace;
    replay.tracePath = trace.path();
    WorkloadGenerator gen(cfg, replay);

    WorkloadGenerator source(cfg, synth);
    const InferenceBatch whole = source.next();
    const InferenceBatch first = gen.next();
    const InferenceBatch second = gen.next();
    EXPECT_EQ(first.batch, 2u);
    EXPECT_EQ(second.batch, 2u);
    for (std::size_t t = 0; t < whole.indices.size(); ++t) {
        std::vector<std::uint64_t> glued = first.indices[t];
        glued.insert(glued.end(), second.indices[t].begin(),
                     second.indices[t].end());
        EXPECT_EQ(glued, whole.indices[t]) << "table " << t;
    }
    std::vector<float> dense = first.dense;
    dense.insert(dense.end(), second.dense.begin(),
                 second.dense.end());
    EXPECT_EQ(dense, whole.dense);
}

TEST(Workload, TraceReplayCyclesAtTheEnd)
{
    const DlrmConfig cfg = tinyModel();
    WorkloadConfig synth;
    synth.batch = 2;
    synth.seed = 21;
    const TempTrace trace(captureTrace(cfg, synth, 2));

    WorkloadConfig replay;
    replay.batch = 2;
    replay.dist = IndexDistribution::Trace;
    replay.tracePath = trace.path();
    WorkloadGenerator gen(cfg, replay);
    const InferenceBatch first = gen.next();
    const InferenceBatch second = gen.next();
    const InferenceBatch wrapped = gen.next();
    EXPECT_NE(first.indices, second.indices);
    EXPECT_EQ(wrapped.indices, first.indices);
}

TEST(WorkloadDeath, TraceGeneratorRejectsBrokenInputs)
{
    const DlrmConfig cfg = tinyModel();
    WorkloadConfig replay;
    replay.dist = IndexDistribution::Trace;

    replay.tracePath = "";
    EXPECT_DEATH((void)WorkloadGenerator(cfg, replay),
                 "needs a trace path");

    replay.tracePath = "/nonexistent/trace.file";
    EXPECT_DEATH((void)WorkloadGenerator(cfg, replay),
                 "cannot open trace");

    const TempTrace garbage("not-a-trace v9 9 9 9");
    replay.tracePath = garbage.path();
    EXPECT_DEATH((void)WorkloadGenerator(cfg, replay),
                 "not a valid centaur trace");

    // A valid trace of the wrong geometry.
    DlrmConfig other = cfg;
    other.lookupsPerTable = 9;
    WorkloadConfig synth;
    synth.batch = 1;
    const TempTrace mismatched(captureTrace(other, synth, 1));
    replay.tracePath = mismatched.path();
    EXPECT_DEATH((void)WorkloadGenerator(cfg, replay),
                 "does not match model");

    // A trace with a valid header but no batches.
    const TempTrace empty("centaur-trace v1 3 4 13\n");
    replay.tracePath = empty.path();
    EXPECT_DEATH((void)WorkloadGenerator(cfg, replay), "no batches");
}

TEST(Workload, ZipfAliasDrawIsDeterministicUnderSeed)
{
    DlrmConfig cfg = tinyModel();
    WorkloadConfig wl;
    wl.batch = 8;
    wl.dist = IndexDistribution::Zipf;
    wl.zipfSkew = 0.8;
    wl.seed = 31;
    WorkloadGenerator a(cfg, wl);
    WorkloadGenerator b(cfg, wl);
    EXPECT_EQ(a.next().indices, b.next().indices);
}

TEST(Workload, ZipfGeneratorsShareOneAliasTablePerRowsAndSkew)
{
    DlrmConfig cfg = tinyModel();
    cfg.rowsPerTable = 1021; // a key no other test uses
    WorkloadConfig wl;
    wl.batch = 8;
    wl.dist = IndexDistribution::Zipf;
    wl.zipfSkew = 1.05;
    wl.seed = 77;
    WorkloadGenerator a(cfg, wl);
    WorkloadGenerator b(cfg, wl);
    for (int i = 0; i < 4; ++i) {
        const InferenceBatch ba = a.next();
        const InferenceBatch bb = b.next();
        EXPECT_EQ(ba.indices, bb.indices);
        EXPECT_EQ(ba.dense, bb.dense);
    }

    const auto shared = sharedZipfAliasSampler(1021, 1.05);
    EXPECT_EQ(shared, sharedZipfAliasSampler(1021, 1.05));
    EXPECT_EQ(shared->population(), 1021u);
    EXPECT_EQ(shared->skew(), 1.05);
    // Generators a and b plus the two lookups above: one table.
    EXPECT_GE(shared.use_count(), 3);
    EXPECT_NE(shared, sharedZipfAliasSampler(1021, 1.1));
    EXPECT_NE(shared, sharedZipfAliasSampler(1022, 1.05));

    // The shared table draws exactly what a private one draws: the
    // first batch's indices are the sampler's first draws on the
    // generator's seeded RNG, table by table.
    WorkloadGenerator c(cfg, wl);
    const InferenceBatch first = c.next();
    const ZipfAliasSampler own(1021, 1.05);
    Rng rng(wl.seed);
    for (const auto &table : first.indices)
        for (std::uint64_t idx : table)
            EXPECT_EQ(idx, own.sample(rng));
}

TEST(Workload, ConcurrentZipfBuildsOfOneKeyGetOnePointer)
{
    // Four threads ask for a key nobody has built yet at once; the
    // memo must hand every one of them the same table.
    constexpr int kThreads = 4;
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<const ZipfAliasSampler>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            got[t] = sharedZipfAliasSampler(50021, 0.93);
        });
    for (std::thread &th : threads)
        th.join();
    ASSERT_NE(got[0], nullptr);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t], got[0]);
    EXPECT_EQ(got[0]->population(), 50021u);
}

TEST(Workload, UniformCoversTheTable)
{
    DlrmConfig cfg = tinyModel();
    cfg.rowsPerTable = 16;
    WorkloadConfig wl;
    wl.batch = 128;
    wl.dist = IndexDistribution::Uniform;
    WorkloadGenerator gen(cfg, wl);
    const auto batch = gen.next();
    std::map<std::uint64_t, int> counts;
    for (auto idx : batch.indices[0])
        ++counts[idx];
    EXPECT_EQ(counts.size(), 16u);
}

} // namespace
} // namespace centaur
