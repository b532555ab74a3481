#include "cluster/engine.hh"

#include <algorithm>

#include "cluster/router.hh"
#include "core/backend.hh"
#include "core/node_scheduler.hh"
#include "core/scenario.hh"
#include "core/system_builder.hh"
#include "sim/log.hh"

namespace centaur {

namespace {

std::uint64_t
nameHash(const std::string &name)
{
    // FNV-1a, stable across platforms.
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : name) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * The cluster run: one node scheduler per node on a shared sharded
 * event queue. Requests are routed up front; a dispatch pays the
 * sharded gather of its remote rows over the network; a hedged
 * clone races on the next active node; the autoscaler drains and
 * wakes whole nodes, handing a drained node's unadmitted requests to
 * the survivors.
 */
class ClusterRun final : public ServingRun
{
  public:
    ClusterRun(ClusterTopology &cluster, const ServingConfig &serving,
               const CtrlConfig &policy)
        : ServingRun(serving, policy,
                     cluster.node(0).workers.front()->config(),
                     cluster.nodes(), cluster.nodes()),
          topo(cluster),
          map(cluster.shardMap()),
          net(cluster.network()),
          vectorBytes(
              cluster.node(0).workers.front()->config().vectorBytes()),
          routeOf(serving.requests),
          gather(cluster.nodes()),
          shardStats(map.shards()),
          nodeActive(cluster.nodes(), 1),
          readBytes(cluster.nodes(), 0)
    {
        const std::uint32_t num_nodes = topo.nodes();
        for (std::uint32_t n = 0; n < num_nodes; ++n)
            addNode(topo.node(n).workers, topo.node(n).fabric.get(), true);
        for (std::uint32_t s = 0; s < map.shards(); ++s) {
            shardStats[s].shard = s;
            shardStats[s].primaryNode = map.primary(s);
            shardStats[s].replicas = map.replicas();
        }

        // Least-loaded books an estimated per-request service time;
        // probe it on a throwaway system so the main workers' state
        // (and the request stream) stay untouched.
        const ClusterSpec &spec = topo.spec();
        const DlrmConfig &model = topo.node(0).workers.front()->config();
        double est_service_us = 0.0;
        if (spec.route == RoutePolicy::LeastLoaded && num_nodes > 1) {
            const auto probe = makeSystem(spec.nodeSpec, model);
            WorkloadGenerator probe_gen(model, cfg.workloadConfig());
            est_service_us =
                usFromTicks(probe->infer(probe_gen.next()).latency());
        }

        // Route every request up front, in id order: decisions depend
        // only on (seed, payload stream), never on event interleaving.
        Router router(spec.route, num_nodes, map, cfg.seed,
                      est_service_us);
        for (std::uint32_t r = 0; r < cfg.requests; ++r) {
            routeOf[r] = router.route(r, requests.payloads[r],
                                      requests.arrivalUs[r]);
            nodes[routeOf[r]].route(r);
        }
    }

    /**
     * Sharded gather: rows on a replica this node holds are free; the
     * rest fan out as one one-sided read per owner node, and the dense
     * stage waits for the slowest. Rows resident in the node's hot-row
     * cache tier never leave the node: they count as local and skip
     * the NIC.
     */
    void
    chargeGather(NodeScheduler &node, const InferenceBatch &batch,
                 const InferenceResult &res, double dispatch_us,
                 double *service_us) override
    {
        const std::uint32_t n = node.id();
        std::fill(readBytes.begin(), readBytes.end(), 0);
        std::uint64_t cached_remote_bytes = 0;
        for (std::size_t tb = 0; tb < batch.indices.size(); ++tb) {
            for (std::uint64_t i = 0; i < batch.indices[tb].size(); ++i) {
                const std::uint64_t row = batch.indices[tb][i];
                const std::uint32_t shard =
                    map.shardOf(static_cast<std::uint32_t>(tb), row);
                if (map.isOwner(shard, n)) {
                    ++shardStats[shard].localLookups;
                } else if (batch.rowCached(tb, i)) {
                    cached_remote_bytes += vectorBytes;
                    ++shardStats[shard].localLookups;
                } else {
                    readBytes[map.replicaFor(shard, n)] += vectorBytes;
                    ++shardStats[shard].remoteLookups;
                }
            }
        }
        if (net.isNull())
            return;
        if (cached_remote_bytes && topo.node(n).cache)
            topo.node(n).cache->recordSavedTicks(serializationTicks(
                cached_remote_bytes, net.config().nicGBps));
        Tick done_min = 0;
        Tick done_max = 0;
        std::uint32_t fanout = 0;
        std::uint64_t read_bytes = 0;
        const Tick ready = ticksFromUs(dispatch_us);
        for (std::uint32_t owner = 0; owner < topo.nodes(); ++owner) {
            if (readBytes[owner] == 0)
                continue;
            const Tick done = net.read(n, owner, readBytes[owner], ready);
            done_min = fanout ? std::min(done_min, done) : done;
            done_max = std::max(done_max, done);
            ++fanout;
            read_bytes += readBytes[owner];
        }
        if (fanout == 0)
            return;
        // The gather overlaps the local IDX+EMB phases; only the tail
        // past them extends the dispatch.
        const double emb_done_us =
            dispatch_us + usFromTicks(res.phaseTicks(Phase::Idx) +
                                      res.phaseTicks(Phase::Emb));
        const double extra_us =
            std::max(0.0, usFromTicks(done_max) - emb_done_us);
        *service_us += extra_us;
        NodeGather &g = gather[n];
        g.remoteGatherUs += extra_us;
        g.remoteReads += fanout;
        g.remoteReadBytes += read_bytes;
        fanoutTotal += fanout;
        ++fanoutDispatches;
        if (fanout > 1)
            stragglerUs += usFromTicks(done_max - done_min);
    }

    /**
     * The clone runs on the next active node. It serves from that
     * node's replicas without a modeled gather - a deliberate
     * simplification: hedge targets are picked for headroom, and
     * charging the NIC twice for one logical request would
     * double-book the fabric the primary already paid.
     */
    NodeScheduler *
    hedgeNode(NodeScheduler &primary) override
    {
        const std::uint32_t num_nodes = topo.nodes();
        for (std::uint32_t k = 1; k < num_nodes; ++k) {
            const std::uint32_t cand = (primary.id() + k) % num_nodes;
            if (nodeActive[cand])
                return &nodes[cand];
        }
        return nullptr;
    }

    /**
     * Autoscaler victims are whole nodes. Draining stops accruing
     * provisioned (idle-energy) time, redistributes the victim's
     * not-yet-admitted arrivals round-robin over the surviving active
     * nodes (each receiver's id list stays sorted, so admission order
     * is unchanged), and wakes the receivers; requests already queued
     * on the victim drain out on its own workers. A re-added node
     * only receives traffic from future drain redistributions.
     */
    void
    scale(int dir, double now_us) override
    {
        const std::uint32_t num_nodes = topo.nodes();
        if (dir > 0) {
            for (std::uint32_t i = 0; i < num_nodes; ++i) {
                if (nodeActive[i])
                    continue;
                nodeActive[i] = 1;
                provisionNode(nodes[i], true, now_us);
                return;
            }
            return;
        }
        std::uint32_t victim = num_nodes;
        for (std::uint32_t i = 0; i < num_nodes; ++i)
            if (nodeActive[i])
                victim = i;
        if (victim >= num_nodes)
            return;
        nodeActive[victim] = 0;
        provisionNode(nodes[victim], false, now_us);
        std::vector<std::uint32_t> receivers;
        for (std::uint32_t i = 0; i < num_nodes; ++i)
            if (nodeActive[i])
                receivers.push_back(i);
        if (receivers.empty())
            return;
        const std::vector<std::uint32_t> moved =
            nodes[victim].releaseUnadmitted();
        if (moved.empty())
            return;
        std::vector<std::vector<std::uint32_t>> share(num_nodes);
        for (std::size_t k = 0; k < moved.size(); ++k) {
            const std::uint32_t rn = receivers[k % receivers.size()];
            share[rn].push_back(moved[k]);
            routeOf[moved[k]] = rn;
        }
        for (std::uint32_t rn : receivers) {
            nodes[rn].adopt(share[rn]);
            // A receiver parked on a future arrival (or fully drained)
            // must re-examine its id list; an extra round on a busy
            // receiver is a harmless no-op.
            nodes[rn].wake(now_us);
        }
    }

    /** Network accounting of one node's dispatches. */
    struct NodeGather
    {
        std::uint64_t remoteReads = 0;
        std::uint64_t remoteReadBytes = 0;
        double remoteGatherUs = 0.0;
    };

    ClusterTopology &topo;
    const EmbeddingShardMap &map;
    ClusterNetwork &net;
    const std::uint64_t vectorBytes;
    std::vector<std::uint32_t> routeOf;
    std::vector<NodeGather> gather;
    std::vector<ClusterShardStats> shardStats;
    std::vector<std::uint8_t> nodeActive;
    std::uint64_t fanoutTotal = 0;
    std::uint64_t fanoutDispatches = 0;
    double stragglerUs = 0.0;

  private:
    static void
    provisionNode(NodeScheduler &node, bool on, double now_us)
    {
        for (std::size_t w = 0; w < node.workers().size(); ++w)
            node.provision(w, on, now_us);
    }

    /** Per-owner read bytes of the dispatch being charged. */
    std::vector<std::uint64_t> readBytes;
};

/**
 * Merge the per-node window trajectories: updates sum, extrema
 * merge, the mean weights by update count, and the final window
 * averages across nodes.
 */
void
mergeWindows(const std::deque<NodeScheduler> &nodes, CtrlStats *out)
{
    out->windowUpdates = 0;
    double weighted_sum_us = 0.0;
    double final_sum_us = 0.0;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        CtrlStats one;
        nodes[n].batcher().fill(&one);
        out->windowUpdates += one.windowUpdates;
        final_sum_us += one.windowFinalUs;
        weighted_sum_us +=
            one.windowMeanUs * static_cast<double>(one.windowUpdates);
        if (n == 0) {
            out->windowMinUs = one.windowMinUs;
            out->windowMaxUs = one.windowMaxUs;
        } else {
            out->windowMinUs = std::min(out->windowMinUs, one.windowMinUs);
            out->windowMaxUs = std::max(out->windowMaxUs, one.windowMaxUs);
        }
    }
    out->windowFinalUs = final_sum_us / static_cast<double>(nodes.size());
    out->windowMeanUs =
        out->windowUpdates
            ? weighted_sum_us / static_cast<double>(out->windowUpdates)
            : out->windowFinalUs;
}

} // namespace

ClusterEngine::ClusterEngine(ClusterTopology &topo,
                             const ServingConfig &cfg)
    : _topo(topo), _cfg(cfg)
{
    checkServingConfig(cfg, "cluster engine");
    if (topo.nodes() == 0)
        fatal("cluster engine needs at least one node");
    for (std::uint32_t n = 0; n < topo.nodes(); ++n)
        if (topo.node(n).workers.empty())
            panic("cluster node ", n, " has no workers");
}

ClusterStats
ClusterEngine::run()
{
    const ClusterSpec &spec = _topo.spec();
    const std::uint32_t nodes = _topo.nodes();
    ClusterNetwork &net = _topo.network();

    // Control plane (ctrlplane/). The cluster /ctrl: part wins over
    // a /ctrl: suffix on the inner node spec (same precedence as
    // /cache:); either wins over the caller's ServingConfig.
    CtrlConfig ctrl = _cfg.ctrl;
    if (spec.ctrl.enabled())
        ctrl = spec.ctrl;
    else if (const CtrlConfig node_ctrl = parseSpec(spec.nodeSpec).ctrl;
             node_ctrl.enabled())
        ctrl = node_ctrl;

    ClusterRun run(_topo, _cfg, ctrl);
    run.simulate();

    ClusterStats out;
    out.cluster = clusterSpecName(spec);
    out.spec = spec;
    out.routeOf = std::move(run.routeOf);

    ServingStats &tot = out.total;
    run.rec.finish(run, &tot);
    // Every node runs its own batcher; report them merged.
    if (run.adaptive)
        mergeWindows(run.nodes, &tot.ctrl);

    const double last = run.rec.lastCompletionUs;
    const Tick horizon = ticksFromUs(last);
    out.perNode.resize(nodes);
    std::size_t first_worker = 0;
    for (std::uint32_t n = 0; n < nodes; ++n) {
        const NodeScheduler &s = run.nodes[n];
        const ClusterNode &node = _topo.node(n);
        ClusterNodeStats &pn = out.perNode[n];
        pn.node = n;
        pn.spec = spec.nodeSpec;
        pn.routed = s.routed();
        pn.served = s.served();
        pn.dispatches = s.dispatches();
        pn.nodeEnergyJoules = s.energyJoules();
        pn.remoteReads = run.gather[n].remoteReads;
        pn.remoteReadBytes = run.gather[n].remoteReadBytes;
        pn.remoteGatherUs = run.gather[n].remoteGatherUs;
        if (node.cache) {
            pn.cache = node.cache->stats();
            tot.cache += pn.cache;
        }
        const auto begin = tot.perWorker.begin() +
                           static_cast<std::ptrdiff_t>(first_worker);
        pn.workers.assign(begin, begin + static_cast<std::ptrdiff_t>(
                                             s.workers().size()));
        first_worker += s.workers().size();
        for (const WorkerStats &ws : pn.workers) {
            pn.busyUs += ws.busyUs;
            pn.fabricWaitUs += ws.fabricWaitUs;
        }
        pn.utilization =
            last > 0.0 ? pn.busyUs / (last * static_cast<double>(
                                              pn.workers.size()))
                       : 0.0;
        if (node.fabric)
            pn.fabric = fabricStats(*node.fabric, horizon);
    }

    out.perShard = std::move(run.shardStats);
    out.nics.resize(nodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
        ClusterNicStats &nic = out.nics[n];
        nic.node = n;
        nic.txGrants = net.tx(n).grants();
        nic.rxGrants = net.rx(n).grants();
        nic.txBusyUs = usFromTicks(net.tx(n).busyTicks());
        nic.rxBusyUs = usFromTicks(net.rx(n).busyTicks());
        nic.txWaitUs = usFromTicks(net.tx(n).waitTicks());
        nic.rxWaitUs = usFromTicks(net.rx(n).waitTicks());
        nic.txUtilization = net.tx(n).utilization(horizon);
        nic.rxUtilization = net.rx(n).utilization(horizon);
    }
    out.remoteReads = net.reads();
    out.remoteReadBytes = net.readBytes();
    out.connectionSetups = net.setups();
    out.meanFanout =
        run.fanoutDispatches
            ? static_cast<double>(run.fanoutTotal) /
                  static_cast<double>(run.fanoutDispatches)
            : 0.0;
    out.stragglerWaitUs = run.stragglerUs;
    return out;
}

ClusterStats
runClusterSim(const ClusterSpec &spec, const DlrmConfig &model,
              const ServingConfig &cfg)
{
    ClusterTopology topo(spec, model, cfg);
    return ClusterEngine(topo, cfg).run();
}

ClusterStats
runClusterSim(const Scenario &sc, const ServingConfig &base)
{
    const ClusterSpec spec = parseClusterSpec(sc.spec);
    const std::vector<ModelInfo> models = parseModelSet(sc.model);
    if (models.size() != 1)
        fatal("scenario ", scenarioName(sc), " names ",
              models.size(),
              " models; a cluster run needs exactly one");
    ServingConfig cfg = base;
    cfg.applyWorkload(parseWorkloadSpec(sc.workload));
    return runClusterSim(spec, models.front().config, cfg);
}

std::uint64_t
clusterSweepSeed(const std::string &key, const std::string &model,
                double rate)
{
    return 0xC1A57E2ULL * 1000003ULL + nameHash(key) +
           nameHash(model) * 31ULL +
           static_cast<std::uint64_t>(rate);
}

std::vector<ClusterSweepEntry>
runClusterSweep(const Scenario &sc, const std::vector<double> &rates,
                const ServingConfig &base, std::uint64_t seed_offset)
{
    const ClusterSpec spec = parseClusterSpec(sc.spec);
    const std::vector<ModelInfo> models = parseModelSet(sc.model);
    if (models.size() != 1)
        fatal("scenario ", scenarioName(sc), " names ",
              models.size(),
              " models; a cluster sweep needs exactly one");
    const ModelInfo &model = models.front();
    ServingConfig cfg = base;
    const WorkloadConfig wl = parseWorkloadSpec(sc.workload);
    cfg.applyWorkload(wl);
    // A workload that pins its own arrival rate replaces the swept
    // rate axis (same rule as runServingSweep).
    const std::vector<double> swept_rates =
        wl.arrivalRatePerSec > 0.0
            ? std::vector<double>{wl.arrivalRatePerSec}
            : rates;

    const std::string cluster = clusterSpecName(spec);
    std::vector<ClusterSweepEntry> out;
    out.reserve(swept_rates.size());
    for (double rate : swept_rates) {
        ServingConfig point = cfg;
        point.arrivalRatePerSec = rate;
        point.seed = clusterSweepSeed(cluster, model.name, rate) +
                     seed_offset;
        ClusterSweepEntry entry;
        entry.modelName = model.config.name;
        entry.spec = spec.nodeSpec;
        entry.workload = workloadSpecName(point.workloadConfig());
        entry.cluster = cluster;
        entry.nodes = spec.nodes;
        entry.workersPerNode =
            cfg.workerSpecs.empty()
                ? cfg.workers
                : static_cast<std::uint32_t>(cfg.workerSpecs.size());
        entry.shardPolicy = shardPolicyName(spec.shard);
        entry.replicas = spec.replicas;
        entry.route = routePolicyName(spec.route);
        entry.arrivalRatePerSec = rate;
        entry.seed = point.seed;
        entry.stats = runClusterSim(spec, model.config, point);
        out.push_back(std::move(entry));
    }
    return out;
}

} // namespace centaur
