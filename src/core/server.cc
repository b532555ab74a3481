#include "core/server.hh"

#include <algorithm>

#include "core/backend.hh"
#include "core/node_scheduler.hh"
#include "core/scenario.hh"
#include "core/system_builder.hh"
#include "sim/log.hh"

namespace centaur {

void
ServingConfig::applyWorkload(const WorkloadConfig &wl)
{
    dist = wl.dist;
    zipfSkew = wl.zipfSkew;
    tracePath = wl.tracePath;
    arrival = wl.arrival;
    burstFactor = wl.burstFactor;
    diurnalAmplitude = wl.diurnalAmplitude;
    diurnalPeriodSec = wl.diurnalPeriodSec;
    sloClasses = wl.sloClasses;
    if (wl.arrivalRatePerSec > 0.0)
        arrivalRatePerSec = wl.arrivalRatePerSec;
}

WorkloadConfig
ServingConfig::workloadConfig() const
{
    WorkloadConfig wl;
    wl.batch = batchPerRequest;
    wl.dist = dist;
    wl.zipfSkew = zipfSkew;
    wl.seed = seed;
    wl.tracePath = tracePath;
    wl.arrival = arrival;
    wl.arrivalRatePerSec = arrivalRatePerSec;
    wl.burstFactor = burstFactor;
    wl.diurnalAmplitude = diurnalAmplitude;
    wl.diurnalPeriodSec = diurnalPeriodSec;
    wl.sloClasses = sloClasses;
    return wl;
}

ServingEngine::ServingEngine(std::vector<System *> workers,
                             const ServingConfig &cfg, Fabric *fabric)
    : _workers(std::move(workers)), _cfg(cfg), _fabric(fabric)
{
    checkServingConfig(cfg, "serving engine");
    if (_workers.empty())
        fatal("serving engine needs at least one worker");
    for (System *w : _workers)
        if (w == nullptr)
            panic("serving engine got a null worker");
}

namespace {

/**
 * The single-node run: one node scheduler over the whole fleet. A
 * hedged clone races on another worker of the same node, and the
 * autoscaler drains or re-adds individual workers.
 */
class NodeRun final : public ServingRun
{
  public:
    NodeRun(const std::vector<System *> &workers, const ServingConfig &cfg,
            Fabric *fabric)
        : ServingRun(cfg, cfg.ctrl, workers.front()->config(),
                     static_cast<std::uint32_t>(workers.size()), 1),
          node(addNode(workers, fabric, false))
    {
        for (std::uint32_t r = 0; r < cfg.requests; ++r)
            node.route(r);
    }

    NodeScheduler *hedgeNode(NodeScheduler &primary) override
    {
        return &primary;
    }

    void
    scale(int dir, double now_us) override
    {
        const std::size_t n = node.workers().size();
        if (dir < 0) {
            // Drain the highest-index serving worker (floor of one
            // is the scaler's invariant).
            for (std::size_t i = n; i-- > 0;) {
                if (node.serving(i)) {
                    node.setServing(i, false);
                    node.provision(i, false, now_us);
                    return;
                }
            }
        } else {
            // Re-add the lowest-index drained worker; it cannot
            // start before the decision tick.
            for (std::size_t i = 0; i < n; ++i) {
                if (!node.serving(i)) {
                    node.setServing(i, true);
                    node.provision(i, true, now_us);
                    return;
                }
            }
        }
    }

    NodeScheduler &node;
};

} // namespace

ServingStats
ServingEngine::run()
{
    NodeRun run(_workers, _cfg, _fabric);
    run.simulate();

    ServingStats out;
    run.rec.finish(run, &out);
    if (_fabric)
        out.fabric =
            fabricStats(*_fabric, ticksFromUs(run.rec.lastCompletionUs));

    // Snapshot the hot-row cache tiers the fleet is attached to; a
    // node tier shared by several workers counts exactly once.
    std::vector<const CacheTier *> seen_tiers;
    for (System *w : _workers) {
        const CacheTier *tier = w->cacheTier();
        if (!tier)
            continue;
        if (std::find(seen_tiers.begin(), seen_tiers.end(), tier) !=
            seen_tiers.end())
            continue;
        seen_tiers.push_back(tier);
        out.cache += tier->stats();
    }
    return out;
}

std::vector<std::unique_ptr<System>>
makeWorkers(const std::string &default_spec, const DlrmConfig &model,
            const ServingConfig &cfg, Fabric *fabric, CacheTier *cache)
{
    auto build = [&](const std::string &spec) {
        return SystemBuilder()
            .spec(spec)
            .model(model)
            .fabric(fabric)
            .cacheTier(cache)
            .functional(false)
            .build();
    };
    std::vector<std::unique_ptr<System>> out;
    if (!cfg.workerSpecs.empty()) {
        out.reserve(cfg.workerSpecs.size());
        for (const std::string &spec : cfg.workerSpecs)
            out.push_back(build(spec));
        return out;
    }
    if (cfg.workers == 0)
        fatal("serving engine needs at least one worker");
    out.reserve(cfg.workers);
    for (std::uint32_t i = 0; i < cfg.workers; ++i)
        out.push_back(build(default_spec));
    return out;
}

ServingStats
runServingSim(const std::string &default_spec, const DlrmConfig &model,
              const ServingConfig &cfg)
{
    Fabric fabric(cfg.fabricCfg);
    Fabric *node = cfg.contend ? &fabric : nullptr;
    // A `/cache:` part on the default spec provisions one node-level
    // tier shared by the whole fleet (heterogeneous workerSpecs with
    // their own cache parts still own private tiers); a `/ctrl:`
    // part selects the fleet's control-plane policy.
    const SystemSpec parsed = parseSpec(default_spec);
    std::unique_ptr<CacheTier> tier;
    if (parsed.cache.enabled())
        tier = std::make_unique<CacheTier>(parsed.cache,
                                           model.vectorBytes());
    ServingConfig run_cfg = cfg;
    if (parsed.ctrl.enabled())
        run_cfg.ctrl = parsed.ctrl;
    auto owned = makeWorkers(default_spec, model, run_cfg, node,
                             tier.get());
    std::vector<System *> workers;
    workers.reserve(owned.size());
    for (auto &w : owned)
        workers.push_back(w.get());
    return ServingEngine(std::move(workers), run_cfg, node).run();
}

ServingStats
runServingSim(const Scenario &sc, const ServingConfig &base)
{
    const ResolvedScenario rs = resolveScenario(sc);
    if (rs.models.size() != 1)
        fatal("scenario ", scenarioName(sc), " names ",
              rs.models.size(),
              " models; a serving run needs exactly one");
    ServingConfig cfg = base;
    cfg.applyWorkload(rs.workload);
    return runServingSim(sc.spec, rs.models.front().config, cfg);
}

} // namespace centaur
