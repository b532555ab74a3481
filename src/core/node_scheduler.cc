#include "core/node_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"
#include "sim/random.hh"

namespace centaur {

RequestStream::RequestStream(const ServingConfig &cfg,
                             const DlrmConfig &model)
    : arrivalUs(cfg.requests),
      inBurst(cfg.requests, 0),
      payloads(cfg.requests),
      bursty(cfg.arrival == ArrivalProcess::Burst &&
             cfg.burstFactor > 1.0)
{
    Rng arrivals_rng(cfg.seed * 7919 + 13);
    WorkloadGenerator gen(model, cfg.workloadConfig());
    const double mean_gap_us = 1e6 / cfg.arrivalRatePerSec;
    const bool diurnal = cfg.arrival == ArrivalProcess::Diurnal &&
                         cfg.diurnalAmplitude > 0.0;
    const double burst_gap_us = mean_gap_us / cfg.burstFactor;
    const double idle_gap_us =
        mean_gap_us * (cfg.burstFactor - 1.0 + 1.0 / cfg.burstFactor);
    const double diurnal_period_us = cfg.diurnalPeriodSec * 1e6;
    double clock_us = 0.0;
    for (std::uint32_t r = 0; r < cfg.requests; ++r) {
        double gap_mean_us = mean_gap_us;
        if (bursty) {
            const bool in_burst =
                arrivals_rng.nextDouble() >= 1.0 / cfg.burstFactor;
            gap_mean_us = in_burst ? burst_gap_us : idle_gap_us;
            inBurst[r] = in_burst ? 1 : 0;
        } else if (diurnal) {
            gap_mean_us =
                mean_gap_us /
                (1.0 + cfg.diurnalAmplitude *
                           std::sin(2.0 * M_PI * clock_us /
                                    diurnal_period_us));
        }
        const double u = std::max(arrivals_rng.nextDouble(), 1e-12);
        clock_us += -std::log(u) * gap_mean_us;
        arrivalUs[r] = clock_us;
        payloads[r] = gen.next();
    }
}

void
checkServingConfig(const ServingConfig &cfg, const char *engine)
{
    if (cfg.arrivalRatePerSec <= 0.0)
        fatal(engine, " needs a positive arrival rate");
    if (cfg.requests == 0)
        fatal(engine, " needs at least one request");
    if (cfg.maxCoalescedBatch == 0)
        fatal(engine, " needs a positive coalesced batch");
    if (cfg.maxQueueDepth > 0 && cfg.maxQueueDepth < cfg.maxCoalescedBatch)
        fatal("maxQueueDepth (", cfg.maxQueueDepth,
              ") must cover maxCoalescedBatch (", cfg.maxCoalescedBatch,
              ") or the admission cap starves forming batches");
}

InferenceBatch
coalesceRequests(const std::vector<InferenceBatch> &payloads,
                 const std::vector<std::uint32_t> &ids)
{
    const InferenceBatch &first = payloads[ids.front()];
    InferenceBatch merged;
    merged.batch = 0;
    merged.lookupsPerTable = first.lookupsPerTable;
    merged.indices.resize(first.indices.size());
    for (std::uint32_t id : ids) {
        const InferenceBatch &req = payloads[id];
        merged.batch += req.batch;
        for (std::size_t t = 0; t < req.indices.size(); ++t)
            merged.indices[t].insert(merged.indices[t].end(),
                                     req.indices[t].begin(),
                                     req.indices[t].end());
        merged.dense.insert(merged.dense.end(), req.dense.begin(),
                            req.dense.end());
    }
    return merged;
}

std::vector<FabricResourceStats>
fabricStats(const Fabric &fabric, Tick horizon)
{
    std::vector<FabricResourceStats> out;
    for (std::size_t i = 0; i < kNumNodeResources; ++i) {
        const auto r = static_cast<NodeResource>(i);
        const ResourceClock &clk = fabric.clock(r);
        FabricResourceStats fs;
        fs.resource = nodeResourceName(r);
        fs.lanes = clk.lanes();
        fs.grants = clk.grants();
        // Lane-occupancy time: a gang of k cores for d us books k*d,
        // so utilization divides out to a capacity fraction.
        fs.busyUs = usFromTicks(clk.busyTicks());
        fs.waitUs = usFromTicks(clk.waitTicks());
        fs.utilization = clk.utilization(horizon);
        out.push_back(std::move(fs));
    }
    return out;
}

// ---------------------------------------------------------------------
// ServingRecorder
// ---------------------------------------------------------------------

ServingRecorder::ServingRecorder(const ServingConfig &cfg,
                                 const RequestStream &requests)
    : _cfg(cfg),
      _requests(requests),
      _classServed(cfg.sloClasses.size(), 0),
      _classWithin(cfg.sloClasses.size(), 0)
{
    _classLatency.reserve(cfg.sloClasses.size());
    for (std::size_t c = 0; c < cfg.sloClasses.size(); ++c)
        _classLatency.emplace_back(0.0, 100000.0, 2000);
}

void
ServingRecorder::drop(std::uint32_t id)
{
    if (!_requests.bursty)
        return;
    if (_requests.inBurst[id])
        ++_droppedBurst;
    else
        ++_droppedIdle;
}

void
ServingRecorder::complete(const std::vector<std::uint32_t> &ids,
                          const std::vector<double> &arrivals,
                          double dispatch_us, double complete_us,
                          double service_us, double *worst_us,
                          double *target_us)
{
    const std::size_t num_classes = _cfg.sloClasses.size();
    double worst_latency_us = 0.0;
    double tightest_target_us = 0.0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
        const double arrival = arrivals[k];
        const double total = complete_us - arrival;
        worst_latency_us = std::max(worst_latency_us, total);
        _latency.sample(total);
        _service.sample(service_us);
        _queueing.sample(dispatch_us - arrival);
        if (_cfg.slaTargetUs > 0.0 && total <= _cfg.slaTargetUs)
            ++_slaHits;
        if (num_classes) {
            const std::size_t c = ids[k] % num_classes;
            const SloClass &cls = _cfg.sloClasses[c];
            _classLatency[c].sample(total);
            ++_classServed[c];
            if (total <= cls.p99TargetUs)
                ++_classWithin[c];
            if (tightest_target_us == 0.0 ||
                cls.p99TargetUs < tightest_target_us)
                tightest_target_us = cls.p99TargetUs;
        }
    }
    *worst_us = worst_latency_us;
    *target_us = tightest_target_us;
}

void
ServingRecorder::finish(const ServingRun &run, ServingStats *out) const
{
    const std::uint32_t num_requests = _cfg.requests;
    const double last = lastCompletionUs;
    out->offered = num_requests;
    out->served = served;
    out->droppedBurstArrivals = _droppedBurst;
    out->droppedIdleArrivals = _droppedIdle;
    out->meanServiceUs = _service.mean();
    out->meanQueueUs = _queueing.mean();
    // StatHistogram keeps an exact running average alongside the
    // buckets, so this mean is not bucket-quantized.
    out->meanLatencyUs = _latency.mean();
    out->p50Us = _latency.quantile(0.50);
    out->p95Us = _latency.quantile(0.95);
    out->p99Us = _latency.quantile(0.99);
    out->p999Us = _latency.quantile(0.999);
    out->maxLatencyUs = _latency.max();
    out->latencyOverflow = _latency.overflow();
    out->offeredRps = _cfg.arrivalRatePerSec;
    out->throughputRps =
        last > 0.0 ? static_cast<double>(served) * 1e6 / last : 0.0;
    out->energyJoules = energyJoules;
    out->dispatches = dispatches;
    out->meanCoalescedRequests =
        dispatches ? static_cast<double>(served) /
                         static_cast<double>(dispatches)
                   : 0.0;
    out->slaTargetUs = _cfg.slaTargetUs;
    out->slaHitRate = _cfg.slaTargetUs > 0.0
                          ? static_cast<double>(_slaHits) /
                                static_cast<double>(num_requests)
                          : 0.0;

    // Per-worker rows, node-major. Idle energy prices time a worker
    // spent provisioned but not serving at a fraction of its spec
    // draw; a drained worker (or node) stops accruing.
    constexpr double kIdleEnergyFraction = 0.3;
    double busy_total_us = 0.0;
    double idle_energy_joules = 0.0;
    for (const NodeScheduler &node : run.nodes) {
        out->droppedQueueFull += node.droppedFull();
        out->droppedTimeout += node.droppedTimeout();
        for (std::size_t i = 0; i < node.workerStats().size(); ++i) {
            WorkerStats ws = node.workerStats()[i];
            ws.utilization = last > 0.0 ? ws.busyUs / last : 0.0;
            busy_total_us += ws.busyUs;
            out->fabricWaitUs += ws.fabricWaitUs;
            const double idle_us = std::max(
                0.0, node.provisionedUs(i, last) - ws.busyUs);
            const System *sys = node.workers()[i];
            idle_energy_joules += idle_us * 1e-6 *
                                  sys->power().watts(sys->design()) *
                                  kIdleEnergyFraction;
            out->perWorker.push_back(std::move(ws));
        }
    }
    out->utilization =
        last > 0.0 && !out->perWorker.empty()
            ? busy_total_us /
                  (last * static_cast<double>(out->perWorker.size()))
            : 0.0;
    out->idleEnergyJoules = idle_energy_joules;
    out->joulesPerQuery =
        served ? (energyJoules + idle_energy_joules + hedgeEnergyJoules) /
                     static_cast<double>(served)
               : 0.0;

    // Per-SLO-class outcome: offered counts come straight from the
    // round-robin stamping, attainment counts drops as misses.
    const std::size_t num_classes = _cfg.sloClasses.size();
    for (std::size_t c = 0; c < num_classes; ++c) {
        SloClassStats cs;
        cs.name = _cfg.sloClasses[c].name;
        cs.targetUs = _cfg.sloClasses[c].p99TargetUs;
        cs.offered = num_requests / num_classes +
                     (c < num_requests % num_classes ? 1 : 0);
        cs.served = _classServed[c];
        cs.p99Us = _classLatency[c].quantile(0.99);
        cs.attainment =
            cs.offered ? static_cast<double>(_classWithin[c]) /
                             static_cast<double>(cs.offered)
                       : 0.0;
        out->perClass.push_back(std::move(cs));
    }

    CtrlStats &ctrl = out->ctrl;
    ctrl.policy = ctrlPartName(run.ctrl);
    if (run.adaptive) {
        run.nodes.front().batcher().fill(&ctrl);
    } else {
        ctrl.windowMinUs = _cfg.coalesceWindowUs;
        ctrl.windowMeanUs = _cfg.coalesceWindowUs;
        ctrl.windowMaxUs = _cfg.coalesceWindowUs;
        ctrl.windowFinalUs = _cfg.coalesceWindowUs;
    }
    ctrl.hedgeDispatches = hedgeDispatches;
    ctrl.hedgeWins = hedgeWins;
    ctrl.hedgeLosses = hedgeLosses;
    ctrl.hedgeWastedUs = hedgeWastedUs;
    ctrl.hedgeEnergyJoules = hedgeEnergyJoules;
    if (run.scaling) {
        run.scaler.fill(&ctrl);
    } else {
        ctrl.activeMin = run.pool;
        ctrl.activeMax = run.pool;
        ctrl.meanActiveWorkers = static_cast<double>(run.pool);
    }
}

// ---------------------------------------------------------------------
// NodeScheduler
// ---------------------------------------------------------------------

NodeScheduler::NodeScheduler(ServingRun &run, std::uint32_t id,
                             std::vector<System *> workers,
                             Fabric *fabric, bool defer_idle)
    : _run(run),
      _id(id),
      _workers(std::move(workers)),
      _fabric(fabric),
      _deferIdle(defer_idle),
      _workerFree(_workers.size(), 0.0),
      _workerStats(_workers.size()),
      _serving(_workers.size(), 1),
      _provisioned(_workers.size(), 1),
      _provisionedSince(_workers.size(), 0.0),
      _provisionedUs(_workers.size(), 0.0),
      _batcher(run.cfg.coalesceWindowUs,
               std::max(run.cfg.coalesceWindowUs * 8.0,
                        4.0 * run.meanGapUs))
{
    for (std::size_t i = 0; i < _workers.size(); ++i)
        _workerStats[i].spec = _workers[i]->spec();
}

std::vector<std::uint32_t>
NodeScheduler::releaseUnadmitted()
{
    std::vector<std::uint32_t> out(
        _ids.begin() + static_cast<std::ptrdiff_t>(_next), _ids.end());
    _ids.resize(_next);
    return out;
}

void
NodeScheduler::adopt(const std::vector<std::uint32_t> &ids)
{
    const auto old_end = static_cast<std::ptrdiff_t>(_ids.size());
    _ids.insert(_ids.end(), ids.begin(), ids.end());
    std::inplace_merge(_ids.begin() + static_cast<std::ptrdiff_t>(_next),
                       _ids.begin() + old_end, _ids.end());
}

void
NodeScheduler::wake(double now_us)
{
    ShardedEventQueue &events = _run.events;
    events.schedule(_id, std::max(events.now(), ticksFromUs(now_us)),
                    &NodeScheduler::fire, this);
}

std::size_t
NodeScheduler::earliestWorker(std::size_t skip) const
{
    std::size_t best = _workers.size();
    for (std::size_t i = 0; i < _workers.size(); ++i) {
        if (i == skip || !_serving[i])
            continue;
        if (best == _workers.size() || _workerFree[i] < _workerFree[best])
            best = i;
    }
    return best;
}

void
NodeScheduler::provision(std::size_t w, bool on, double now_us)
{
    _provisioned[w] = on;
    if (on) {
        _provisionedSince[w] = now_us;
        _workerFree[w] = std::max(_workerFree[w], now_us);
    } else {
        _provisionedUs[w] += now_us - _provisionedSince[w];
    }
}

double
NodeScheduler::provisionedUs(std::size_t w, double end_us) const
{
    return _provisioned[w]
               ? _provisionedUs[w] + (end_us - _provisionedSince[w])
               : _provisionedUs[w];
}

void
NodeScheduler::fire(void *node)
{
    auto *n = static_cast<NodeScheduler *>(node);
    if (n->round())
        n->wake(n->_workerFree[n->earliestWorker()]);
}

void
NodeScheduler::admitUpTo(double t_us)
{
    const std::vector<double> &arrival_us = _run.requests.arrivalUs;
    const std::uint32_t max_depth = _run.cfg.maxQueueDepth;
    while (_next < _ids.size() && arrival_us[_ids[_next]] <= t_us) {
        const std::uint32_t id = _ids[_next];
        if (max_depth > 0 && _queue.size() >= max_depth) {
            ++_droppedFull;
            _run.rec.drop(id);
        } else {
            _queue.push_back({id, arrival_us[id]});
        }
        ++_next;
    }
}

void
NodeScheduler::account(std::size_t w, double service_us,
                       std::size_t requests, const InferenceResult &res)
{
    WorkerStats &ws = _workerStats[w];
    ws.busyUs += service_us;
    ws.served += requests;
    ++ws.dispatches;
    ws.energyJoules += res.energyJoules;
    ws.fabricWaitUs += usFromTicks(res.fabricWait);
    ws.cacheHits += res.cacheHits;
    ws.cacheMisses += res.cacheMisses;
    ws.cacheSavedUs += usFromTicks(res.cacheSavedTicks);
    _energyJoules += res.energyJoules;
    _served += requests;
    ++_dispatches;
    _run.rec.energyJoules += res.energyJoules;
}

bool
NodeScheduler::round()
{
    const ServingConfig &cfg = _run.cfg;
    const std::vector<double> &arrival_us = _run.requests.arrivalUs;
    ServingRecorder &rec = _run.rec;

    // The earliest-free serving worker claims the next dispatch.
    const std::size_t w = earliestWorker();
    double t = _workerFree[w];
    admitUpTo(t);
    if (_queue.empty()) {
        if (_next >= _ids.size())
            return false; // drained: nothing left to schedule
        t = arrival_us[_ids[_next]];
        // A deferring node waiting on a future arrival re-fires at
        // that arrival's tick instead of dispatching "early" at a
        // stale event time: NIC grants must be requested in (near)
        // global time order, or the FIFO busy-until clocks would
        // stall other nodes' reads behind one booked far in the
        // future. Decisions read the microsecond state either way.
        if (_deferIdle && ticksFromUs(t) > _run.events.now()) {
            _run.events.schedule(_id, ticksFromUs(t),
                                 &NodeScheduler::fire, this);
            return false;
        }
        admitUpTo(t);
    }

    double dispatch_us = std::max(t, _queue.front().arrivalUs);

    // Dynamic batching window: an underfull batch waits for more
    // arrivals, dispatching as soon as it fills or the window timer
    // expires - whichever comes first. The adaptive batcher swaps in
    // its controlled window; updates land at dispatch boundaries in
    // request-id order, so the trajectory is jobs-independent.
    const double window_us =
        _run.adaptive ? _batcher.windowUs() : cfg.coalesceWindowUs;
    if (window_us > 0.0 && _queue.size() < cfg.maxCoalescedBatch) {
        const double deadline_us = dispatch_us + window_us;
        while (_queue.size() < cfg.maxCoalescedBatch &&
               _next < _ids.size() &&
               arrival_us[_ids[_next]] <= deadline_us) {
            const double ta = arrival_us[_ids[_next]];
            const std::size_t before = _queue.size();
            admitUpTo(ta);
            if (_queue.size() > before)
                dispatch_us = ta;
        }
        if (_queue.size() < cfg.maxCoalescedBatch)
            dispatch_us = deadline_us; // timer fired underfull
    }

    // Pop the batch in arrival order, shedding requests whose
    // queueing time exceeded the timeout.
    std::vector<std::uint32_t> batch_ids;
    std::vector<double> batch_arrivals;
    while (!_queue.empty() && batch_ids.size() < cfg.maxCoalescedBatch) {
        const Pending req = _queue.front();
        _queue.pop_front();
        if (cfg.queueTimeoutUs > 0.0 &&
            dispatch_us - req.arrivalUs > cfg.queueTimeoutUs) {
            ++_droppedTimeout;
            rec.drop(req.id);
            continue;
        }
        batch_ids.push_back(req.id);
        batch_arrivals.push_back(req.arrivalUs);
    }
    if (batch_ids.empty()) {
        // Everything popped had timed out; the worker idles at the
        // dispatch point and retries next round.
        _workerFree[w] = std::max(_workerFree[w], dispatch_us);
        return true;
    }

    const InferenceBatch merged =
        coalesceRequests(_run.requests.payloads, batch_ids);
    // On a shared node, pull the worker's private clock forward to
    // the dispatch point so its fabric occupations happen in global
    // time rather than on a densely-packed private timeline.
    if (_fabric)
        _workers[w]->alignClock(ticksFromUs(dispatch_us));
    // Snapshot the fabric frontier before the primary books
    // occupancy so a hedge win can cancel its residual.
    Fabric::Frontier primary_snap;
    if (_run.hedging && _fabric)
        primary_snap = _fabric->snapshot();
    const InferenceResult res = _workers[w]->infer(merged);
    double service_us = usFromTicks(res.latency());
    _run.chargeGather(*this, merged, res, dispatch_us, &service_us);
    const double done_us = dispatch_us + service_us;

    // Hedged duplicate: once enough service history is banked, a
    // dispatch running past the q-quantile of observed service times
    // is a straggler; clone it onto the earliest-free worker of the
    // engine's hedge node, delayed by that quantile, and let the
    // first completion win. The loser is cancelled at the winner
    // tick: its worker frees, its residual fabric occupancy rolls
    // back, and its burned time/energy is accounted as hedge waste,
    // separate from useful work.
    double complete_us = done_us;
    bool clone_won = false;
    if (_run.hedging && _run.quantile.ready()) {
        const double delay_us =
            _run.quantile.quantileUs(_run.ctrl.hedgeQuantile);
        NodeScheduler *hn =
            service_us > delay_us ? _run.hedgeNode(*this) : nullptr;
        const std::size_t w2 =
            hn ? hn->earliestWorker(hn == this ? w : SIZE_MAX) : 0;
        const double clone_start =
            hn && w2 < hn->_workers.size()
                ? std::max(dispatch_us + delay_us, hn->_workerFree[w2])
                : done_us;
        if (clone_start < done_us) {
            ++rec.hedgeDispatches;
            Fabric::Frontier clone_snap;
            if (hn->_fabric) {
                clone_snap = hn->_fabric->snapshot();
                hn->_workers[w2]->alignClock(ticksFromUs(clone_start));
            }
            const InferenceResult clone_res =
                hn->_workers[w2]->infer(merged);
            const double clone_service = usFromTicks(clone_res.latency());
            const double clone_done = clone_start + clone_service;
            if (clone_done < done_us) {
                // Clone wins; primary cancelled at clone_done. Rolling
                // back to the pre-primary frontier keeps the clone's
                // bookings (they end by clone_done) and reclaims the
                // primary's residual.
                ++rec.hedgeWins;
                clone_won = true;
                complete_us = clone_done;
                const double burned = clone_done - dispatch_us;
                _workerFree[w] = clone_done;
                _workerStats[w].busyUs += burned;
                _workerStats[w].fabricWaitUs += usFromTicks(res.fabricWait);
                rec.hedgeWastedUs += burned;
                rec.hedgeEnergyJoules +=
                    service_us > 0.0
                        ? res.energyJoules * (burned / service_us)
                        : 0.0;
                if (_fabric)
                    _fabric->cancelAfter(primary_snap,
                                         ticksFromUs(clone_done));
                hn->_workerFree[w2] = clone_done;
                hn->account(w2, clone_service, batch_ids.size(),
                            clone_res);
            } else {
                // Primary wins (ties included); cancel the clone.
                ++rec.hedgeLosses;
                const double burned = done_us - clone_start;
                hn->_workerFree[w2] =
                    std::max(hn->_workerFree[w2], done_us);
                hn->_workerStats[w2].busyUs += burned;
                rec.hedgeWastedUs += burned;
                rec.hedgeEnergyJoules +=
                    clone_service > 0.0
                        ? clone_res.energyJoules *
                              (burned / clone_service)
                        : 0.0;
                if (hn->_fabric)
                    hn->_fabric->cancelAfter(clone_snap,
                                             ticksFromUs(done_us));
            }
        }
    }
    if (_run.hedging)
        _run.quantile.add(service_us);

    if (!clone_won) {
        _workerFree[w] = done_us;
        account(w, service_us, batch_ids.size(), res);
    }
    rec.lastCompletionUs = std::max(rec.lastCompletionUs, complete_us);
    rec.served += batch_ids.size();
    ++rec.dispatches;

    // On the open-loop path this is service_us bit-for-bit; only a
    // winning clone shortens the effective service time.
    const double effective_service_us =
        clone_won ? complete_us - dispatch_us : service_us;
    double worst_latency_us = 0.0;
    double tightest_target_us = 0.0;
    rec.complete(batch_ids, batch_arrivals, dispatch_us, complete_us,
                 effective_service_us, &worst_latency_us,
                 &tightest_target_us);

    if (_run.adaptive)
        _batcher.update(_queue.size(), cfg.maxCoalescedBatch,
                        worst_latency_us, tightest_target_us);

    if (_run.scaling) {
        _run.intervalBusyUs += effective_service_us;
        while (_run.scaler.due(dispatch_us)) {
            const int dir = _run.scaler.decide(_run.intervalBusyUs);
            _run.intervalBusyUs = 0.0;
            if (dir != 0)
                _run.scale(dir, dispatch_us);
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// ServingRun
// ---------------------------------------------------------------------

ServingRun::ServingRun(const ServingConfig &cfg_, const CtrlConfig &ctrl_,
                       const DlrmConfig &model, std::uint32_t pool_,
                       std::uint32_t nodes_)
    : cfg(cfg_),
      ctrl(ctrl_),
      pool(pool_),
      adaptive(ctrl_.adaptive),
      hedging(ctrl_.hedge && pool_ > 1),
      scaling(ctrl_.scale && pool_ > 1),
      meanGapUs(1e6 / cfg_.arrivalRatePerSec),
      requests(cfg_, model),
      rec(cfg_, requests),
      scaler(ctrl_, pool_, std::max(1000.0, 32.0 * meanGapUs)),
      events(nodes_)
{
}

ServingRun::~ServingRun() = default;

NodeScheduler &
ServingRun::addNode(std::vector<System *> workers, Fabric *fabric,
                    bool defer_idle)
{
    if (nodes.size() == events.shards())
        panic("serving run adds more nodes than it has event shards");
    const auto id = static_cast<std::uint32_t>(nodes.size());
    events.reserve(id, 4); // own round + drain wakes
    return nodes.emplace_back(*this, id, std::move(workers), fabric,
                              defer_idle);
}

void
ServingRun::simulate()
{
    for (NodeScheduler &node : nodes)
        node.wake(0.0);
    events.run();
}

} // namespace centaur
