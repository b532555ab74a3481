/**
 * @file
 * Golden serving runs: both engines (core/server.hh, cluster/engine.hh)
 * on configurations that together exercise every branch of the shared
 * node scheduler - uncontended runs on every registered spec,
 * admission drops, timeout shedding, the coalescing window, SLO
 * classes under the adaptive batcher, hedge wins and losses, the
 * worker and node autoscalers, heterogeneous fleets, sharded gathers,
 * the cache tier and every routing policy.
 *
 * Each run pins three things: a 64-bit FNV-1a of the full report
 * (toJson(stats).dump()), the number of simulated events it executed
 * (globalSimEvents() delta) and a few readable scalars. Any change to
 * the scheduling order, the accounting or the report moves the hash;
 * the scalars say roughly where. A failure prints the run's actual
 * values in the table's own syntax, so a deliberate behaviour change
 * re-pins by pasting.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/engine.hh"
#include "cluster/report.hh"
#include "core/backend.hh"
#include "core/report.hh"
#include "core/server.hh"
#include "sim/event_queue.hh"

namespace centaur {
namespace {

/** The pinned outcome of one golden run. */
struct Golden
{
    const char *name;
    std::uint64_t reportHash; //!< FNV-1a of toJson(stats).dump()
    std::uint64_t simEvents;
    std::uint64_t served;
    std::uint64_t dispatches;
    double p99Us;
    double joulesPerQuery;
};

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Compare one run against its pinned row. */
void
expectGolden(const Golden &g, const std::string &report,
             std::uint64_t sim_events, const ServingStats &s)
{
    char actual[256];
    std::snprintf(actual, sizeof(actual),
                  "{\"%s\", 0x%016" PRIx64 "ULL, %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %.17g, %.17g}",
                  g.name, fnv1a(report), sim_events, s.served,
                  s.dispatches, s.p99Us, s.joulesPerQuery);
    SCOPED_TRACE(std::string("actual: ") + actual);
    EXPECT_EQ(s.served, g.served);
    EXPECT_EQ(s.dispatches, g.dispatches);
    EXPECT_DOUBLE_EQ(s.p99Us, g.p99Us);
    EXPECT_DOUBLE_EQ(s.joulesPerQuery, g.joulesPerQuery);
    EXPECT_EQ(sim_events, g.simEvents);
    EXPECT_EQ(fnv1a(report), g.reportHash);
}

DlrmConfig
smallModel()
{
    DlrmConfig cfg;
    cfg.numTables = 3;
    cfg.lookupsPerTable = 8;
    cfg.rowsPerTable = 50000;
    return cfg;
}

/** One single-node run through runServingSim. */
ServingStats
serve(const Golden &g, const std::string &spec, const ServingConfig &cfg)
{
    const std::uint64_t ev0 = globalSimEvents();
    const ServingStats s = runServingSim(spec, smallModel(), cfg);
    const std::uint64_t events = globalSimEvents() - ev0;
    expectGolden(g, toJson(s).dump(), events, s);
    return s;
}

/** One cluster run through runClusterSim. */
ClusterStats
serveCluster(const Golden &g, const std::string &spec,
             const ServingConfig &cfg)
{
    const std::uint64_t ev0 = globalSimEvents();
    const ClusterStats s =
        runClusterSim(parseClusterSpec(spec), smallModel(), cfg);
    const std::uint64_t events = globalSimEvents() - ev0;
    expectGolden(g, toJson(s).dump(), events, s.total);
    return s;
}

// ---------------------------------------------------------------------
// Single node.
// ---------------------------------------------------------------------

TEST(ServingGolden, UncontendedOnEveryRegisteredSpec)
{
    // Two workers, pairs coalesced, some queueing and some idle: the
    // plain round with no fabric and no control policy armed.
    static const Golden kGolden[] = {
        {"cpu",
         0x818aeacadfe8823fULL, 35, 40, 34, 150, 0.0056144437391836138},
        {"cpu+gpu",
         0x96dc7d33dcfa6676ULL, 28, 40, 27, 300, 0.013250187376413272},
        {"cpu+fpga",
         0xfbcec89bea44b981ULL, 41, 40, 40, 50, 0.0023140432414948419},
        {"gpu",
         0xdddd9521dfee33faULL, 27, 40, 26, 300, 0.013347530099001494},
        {"gpu+fpga",
         0x550c5b67234d381bULL, 39, 40, 38, 100, 0.0073943417124848459},
        {"fpga+fpga",
         0x07609c4ab3bfa1daULL, 41, 40, 40, 50, 0.0033185472219448412},
    };
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 20000.0;
    cfg.batchPerRequest = 4;
    cfg.requests = 40;
    cfg.workers = 2;
    cfg.maxCoalescedBatch = 2;
    const std::vector<std::string> specs = registeredSpecs();
    ASSERT_EQ(specs.size(), std::size(kGolden));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i]);
        ASSERT_EQ(specs[i], kGolden[i].name);
        const ServingStats s = serve(kGolden[i], specs[i], cfg);
        EXPECT_EQ(s.served, cfg.requests);
    }
}

TEST(ServingGolden, ContendedWindowTimeoutAndBurstDrops)
{
    static const Golden kGolden = {
        "cpu contended window+timeout",
        0x2aedd784ed6316bfULL, 47, 151, 44, 350, 0.0043049052922676202};
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 40000.0;
    cfg.batchPerRequest = 4;
    cfg.requests = 200;
    cfg.workers = 2;
    cfg.maxCoalescedBatch = 4;
    cfg.coalesceWindowUs = 60.0;
    cfg.maxQueueDepth = 6;
    cfg.queueTimeoutUs = 150.0;
    cfg.arrival = ArrivalProcess::Burst;
    cfg.burstFactor = 6.0;
    cfg.slaTargetUs = 800.0;
    cfg.contend = true;
    cfg.seed = 11;
    const ServingStats s = serve(kGolden, "cpu", cfg);
    EXPECT_GT(s.droppedQueueFull, 0u);
    EXPECT_GT(s.droppedTimeout, 0u);
    EXPECT_GT(s.droppedBurstArrivals, 0u);
    EXPECT_GT(s.droppedIdleArrivals, 0u);
    EXPECT_GT(s.meanCoalescedRequests, 1.0);
    EXPECT_FALSE(s.fabric.empty());
}

TEST(ServingGolden, SloClassesUnderTheAdaptiveBatcher)
{
    static const Golden kGolden = {
        "cpu+fpga slo adaptive",
        0xad0d377023ede0cbULL, 64, 200, 63, 300, 0.0040098674688626166};
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 12000.0;
    cfg.batchPerRequest = 4;
    cfg.requests = 200;
    cfg.workers = 2;
    cfg.maxCoalescedBatch = 4;
    cfg.coalesceWindowUs = 80.0;
    cfg.sloClasses = {{"rt", 300.0}, {"batch", 2000.0}};
    cfg.seed = 5;
    const ServingStats s =
        serve(kGolden, "cpu+fpga/ctrl:adaptive", cfg);
    ASSERT_EQ(s.perClass.size(), 2u);
    EXPECT_GT(s.ctrl.windowUpdates, 0u);
    EXPECT_NE(s.ctrl.windowMinUs, s.ctrl.windowMaxUs);
}

TEST(ServingGolden, HedgingWinsAndLoses)
{
    static const Golden kGolden = {
        "hetero hedge",
        0x7eb91c9b1aa3f23cULL, 199, 200, 198, 150, 0.017143925670882281};
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 6000.0;
    cfg.batchPerRequest = 8;
    cfg.requests = 200;
    cfg.workerSpecs = {"cpu", "cpu+fpga", "cpu", "cpu+fpga"};
    cfg.maxCoalescedBatch = 2;
    cfg.arrival = ArrivalProcess::Burst;
    cfg.burstFactor = 4.0;
    cfg.contend = true;
    cfg.seed = 21;
    const ServingStats s =
        serve(kGolden, "cpu/ctrl:fixed:hedge:0.5", cfg);
    EXPECT_GT(s.ctrl.hedgeWins, 0u);
    EXPECT_GT(s.ctrl.hedgeLosses, 0u);
}

TEST(ServingGolden, WorkerAutoscaler)
{
    static const Golden kGolden = {
        "cpu scale",
        0x2672ed77a3c3257cULL, 239, 240, 238, 150, 0.023329225667763468};
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 3000.0;
    cfg.batchPerRequest = 4;
    cfg.requests = 240;
    cfg.workers = 4;
    cfg.maxCoalescedBatch = 2;
    cfg.arrival = ArrivalProcess::Diurnal;
    cfg.diurnalAmplitude = 0.9;
    cfg.diurnalPeriodSec = 0.04;
    cfg.seed = 8;
    const ServingStats s =
        serve(kGolden, "cpu/ctrl:fixed:scale:0.1-0.3", cfg);
    EXPECT_GT(s.ctrl.scaleDowns, 0u);
    EXPECT_GT(s.ctrl.scaleUps, 0u);
    EXPECT_LT(s.ctrl.activeMin, s.ctrl.activeMax);
}

TEST(ServingGolden, HeterogeneousFleet)
{
    static const Golden kGolden = {
        "hetero fleet",
        0xdd4f1c03e6cdfa15ULL, 95, 160, 94, 250, 0.0081275820068444915};
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 15000.0;
    cfg.batchPerRequest = 4;
    cfg.requests = 160;
    cfg.workerSpecs = {"cpu+fpga", "cpu+gpu", "cpu"};
    cfg.maxCoalescedBatch = 3;
    cfg.coalesceWindowUs = 40.0;
    cfg.contend = true;
    cfg.seed = 3;
    const ServingStats s = serve(kGolden, "cpu", cfg);
    ASSERT_EQ(s.perWorker.size(), 3u);
    for (const WorkerStats &w : s.perWorker)
        EXPECT_GT(w.served, 0u) << w.spec;
}

// ---------------------------------------------------------------------
// Cluster.
// ---------------------------------------------------------------------

TEST(ServingGolden, ClusterAffinityZipfCacheHedge)
{
    static const Golden kGolden = {
        "cluster affinity cache hedge",
        0xf5e80555fa0bd6eeULL, 245, 200, 128, 300, 0.02184137296102583};
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 12000.0;
    cfg.batchPerRequest = 8;
    cfg.requests = 200;
    cfg.workers = 2;
    cfg.maxCoalescedBatch = 2;
    cfg.dist = IndexDistribution::Zipf;
    cfg.zipfSkew = 1.1;
    cfg.contend = true;
    cfg.seed = 31;
    const ClusterStats s = serveCluster(
        kGolden,
        "cluster:4x(cpu)/shard:range:2/route:affinity/net:1.5:2:25/"
        "cache:1/ctrl:adaptive:hedge:0.2",
        cfg);
    EXPECT_GT(s.total.cache.hits, 0u);
    EXPECT_GT(s.remoteReads, 0u);
    EXPECT_GT(s.total.ctrl.hedgeWins, 0u);
    EXPECT_GT(s.total.ctrl.hedgeLosses, 0u);
}

TEST(ServingGolden, ClusterLeastLoaded)
{
    static const Golden kGolden = {
        "cluster least",
        0x49c63621fdc30779ULL, 403, 200, 200, 100, 0.018884065574023681};
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 8000.0;
    cfg.batchPerRequest = 4;
    cfg.requests = 200;
    cfg.workers = 2;
    cfg.maxCoalescedBatch = 2;
    cfg.coalesceWindowUs = 30.0;
    cfg.contend = true;
    cfg.seed = 41;
    const ClusterStats s = serveCluster(
        kGolden,
        "cluster:3x(cpu+fpga)/shard:hash/route:least/net:1.5:2:25", cfg);
    for (const ClusterNodeStats &n : s.perNode)
        EXPECT_GT(n.routed, 0u) << n.node;
}

TEST(ServingGolden, ClusterAutoscalerDrainsANode)
{
    static const Golden kGolden = {
        "cluster scale",
        0xaab998d80dd4ae1fULL, 932, 240, 240, 150, 0.034068327786171949};
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 1500.0;
    cfg.batchPerRequest = 4;
    cfg.requests = 240;
    cfg.workers = 1;
    cfg.maxCoalescedBatch = 2;
    cfg.seed = 51;
    const ClusterStats s = serveCluster(
        kGolden,
        "cluster:4x(cpu)/shard:range/net:1.5:2:25/ctrl:fixed:scale",
        cfg);
    EXPECT_GT(s.total.ctrl.scaleDowns, 0u);
    // The drained nodes' unadmitted arrivals moved to node 0.
    EXPECT_GT(s.perNode[0].routed, s.total.offered / 2);
    EXPECT_EQ(s.total.served + s.total.droppedQueueFull +
                  s.total.droppedTimeout,
              s.total.offered);
}

} // namespace
} // namespace centaur
