/**
 * @file
 * The per-node scheduler both serving engines drive.
 *
 * A serving run generates its whole request stream up front
 * (RequestStream), hands every request id to one node, and then lets
 * each node run the same greedy scheduling round as an event on one
 * ShardedEventQueue: the earliest-free worker admits what has
 * arrived, an underfull batch waits out the coalescing window,
 * requests queued past the timeout are shed, the batch is coalesced
 * and inferred, a straggler may race a hedged clone, and the
 * dispatch is booked into the run-wide ServingRecorder. Rounds read
 * the double-precision microsecond state, not the event clock; the
 * event clock only orders the nodes' rounds against each other, so
 * a run is deterministic and independent of --jobs.
 *
 * What the single-node ServingEngine (core/server.hh) and the
 * ClusterEngine (cluster/engine.hh) do differently sits behind
 * ServingRun's virtual hooks: where a hedged clone runs, what an
 * autoscaler decision drains or re-adds, and the cluster's
 * sharded-gather charge.
 */

#ifndef CENTAUR_CORE_NODE_SCHEDULER_HH
#define CENTAUR_CORE_NODE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/fabric.hh"
#include "core/server.hh"
#include "core/system.hh"
#include "ctrlplane/controllers.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace centaur {

/**
 * Arrivals and payloads of one run, generated up front in request-id
 * order so results never depend on how nodes and workers interleave.
 * Poisson draws exponential gaps at the mean rate. Burst draws from a
 * two-state mixture: geometric trains of mean length burstFactor at
 * burstFactor x the mean rate, separated by idle gaps sized so the
 * long-run mean rate is preserved. Diurnal modulates the Poisson rate
 * sinusoidally against the arrival clock (a compressed day) without
 * consuming extra draws. Shedding happens later, so it can never
 * perturb the draw sequence.
 */
struct RequestStream
{
    RequestStream(const ServingConfig &cfg, const DlrmConfig &model);

    std::vector<double> arrivalUs;
    /** 1 when the request's gap was drawn in the burst state. */
    std::vector<std::uint8_t> inBurst;
    std::vector<InferenceBatch> payloads;
    /** A Burst process with factor > 1 (drops are classified). */
    bool bursty = false;
};

/**
 * fatal() unless @p cfg can run: a positive arrival rate, at least
 * one request, a positive coalesced batch and an admission cap (when
 * set) that covers it. @p engine names the caller in the message.
 */
void checkServingConfig(const ServingConfig &cfg, const char *engine);

/** Concatenate per-request payloads into one dispatched batch. */
InferenceBatch coalesceRequests(const std::vector<InferenceBatch> &payloads,
                                const std::vector<std::uint32_t> &ids);

/** Per-resource rows of @p fabric over a run ending at @p horizon. */
std::vector<FabricResourceStats> fabricStats(const Fabric &fabric,
                                             Tick horizon);

class NodeScheduler;
class ServingRun;

/**
 * Run-wide serving statistics: the latency, service and queueing
 * distributions, SLA hits, SLO classes, drop classification, hedge
 * outcomes and the fleet totals every node books into.
 */
class ServingRecorder
{
  public:
    ServingRecorder(const ServingConfig &cfg,
                    const RequestStream &requests);

    /** Count a shed request by the arrival state it was drawn in. */
    void drop(std::uint32_t id);

    /**
     * Book one completed dispatch of @p ids (queued since
     * @p arrivals) dispatched at @p dispatch_us and completed at
     * @p complete_us after @p service_us of service. Returns the
     * slowest request latency through @p worst_us and the tightest
     * SLO target among the batch's classes (0 = none) through
     * @p target_us, the adaptive batcher's inputs.
     */
    void complete(const std::vector<std::uint32_t> &ids,
                  const std::vector<double> &arrivals,
                  double dispatch_us, double complete_us,
                  double service_us, double *worst_us,
                  double *target_us);

    /**
     * The common ServingStats roll-up of @p run: distributions,
     * drops, per-worker rows (node-major) and utilization, idle
     * energy, SLO classes and the ctrl block. The window block
     * reports the first node's batcher.
     */
    void finish(const ServingRun &run, ServingStats *out) const;

    std::uint64_t served = 0;
    std::uint64_t dispatches = 0;
    double energyJoules = 0.0;
    double lastCompletionUs = 0.0;
    std::uint64_t hedgeDispatches = 0;
    std::uint64_t hedgeWins = 0;
    std::uint64_t hedgeLosses = 0;
    double hedgeWastedUs = 0.0;
    double hedgeEnergyJoules = 0.0;

  private:
    const ServingConfig &_cfg;
    const RequestStream &_requests;
    StatHistogram _latency{0.0, 100000.0, 2000}; // us, 50 us buckets
    StatAverage _service;
    StatAverage _queueing;
    std::uint64_t _slaHits = 0;
    std::uint64_t _droppedBurst = 0;
    std::uint64_t _droppedIdle = 0;
    /** Per SLO class (request r is class r % classes). */
    std::vector<StatHistogram> _classLatency;
    std::vector<std::uint64_t> _classServed;
    std::vector<std::uint64_t> _classWithin;
};

/**
 * One node's scheduling state and round: the request ids routed to
 * it, its admission queue, worker-free times, per-worker stats, drop
 * counters and coalescing-window controller.
 */
class NodeScheduler
{
  public:
    NodeScheduler(ServingRun &run, std::uint32_t id,
                  std::vector<System *> workers, Fabric *fabric,
                  bool defer_idle);

    // Scheduled events hold the node's address.
    NodeScheduler(const NodeScheduler &) = delete;
    NodeScheduler &operator=(const NodeScheduler &) = delete;

    std::uint32_t id() const { return _id; }
    const std::vector<System *> &workers() const { return _workers; }

    /** Route request @p id here (ids must arrive ascending). */
    void route(std::uint32_t id) { _ids.push_back(id); }

    /** Requests routed here and still here. */
    std::uint64_t routed() const { return _ids.size(); }

    /** Hand back the routed ids not yet admitted, ascending. */
    std::vector<std::uint32_t> releaseUnadmitted();

    /** Take over ascending @p ids released by another node. */
    void adopt(const std::vector<std::uint32_t> &ids);

    /** Fire a round at @p now_us (or the current tick if later). */
    void wake(double now_us);

    /**
     * Earliest-free worker taking dispatches, ascending index on
     * ties, skipping @p skip; workers().size() when there is none.
     */
    std::size_t earliestWorker(std::size_t skip = SIZE_MAX) const;

    /** Whether worker @p w takes dispatches and hedge clones. */
    bool serving(std::size_t w) const { return _serving[w]; }
    void setServing(std::size_t w, bool on) { _serving[w] = on; }

    /**
     * Start (@p on) or stop accruing worker @p w's provisioned time
     * - priced as idle energy when not busy - at @p now_us. A
     * re-provisioned worker cannot start before @p now_us.
     */
    void provision(std::size_t w, bool on, double now_us);

    /** Provisioned time of worker @p w up to @p end_us. */
    double provisionedUs(std::size_t w, double end_us) const;

    const std::vector<WorkerStats> &workerStats() const
    {
        return _workerStats;
    }
    std::uint64_t droppedFull() const { return _droppedFull; }
    std::uint64_t droppedTimeout() const { return _droppedTimeout; }
    std::uint64_t served() const { return _served; }
    std::uint64_t dispatches() const { return _dispatches; }
    double energyJoules() const { return _energyJoules; }
    const AdaptiveBatcher &batcher() const { return _batcher; }

  private:
    /** Captureless event trampoline: one POD event per round. */
    static void fire(void *node);

    /** One round; true = fire again at the earliest-free worker. */
    bool round();

    void admitUpTo(double t_us);

    /** Book a dispatch that completed on worker @p w. */
    void account(std::size_t w, double service_us, std::size_t requests,
                 const InferenceResult &res);

    ServingRun &_run;
    std::uint32_t _id;
    std::vector<System *> _workers;
    Fabric *_fabric;
    bool _deferIdle;

    /** One admitted request waiting for a worker. */
    struct Pending
    {
        std::uint32_t id = 0;
        double arrivalUs = 0.0;
    };

    /** Request ids routed here, ascending (= arrival order). */
    std::vector<std::uint32_t> _ids;
    std::size_t _next = 0; //!< next unadmitted index into _ids
    std::deque<Pending> _queue;
    std::vector<double> _workerFree;
    std::vector<WorkerStats> _workerStats;
    std::vector<std::uint8_t> _serving;
    std::vector<std::uint8_t> _provisioned;
    std::vector<double> _provisionedSince;
    std::vector<double> _provisionedUs;
    AdaptiveBatcher _batcher;
    std::uint64_t _droppedFull = 0;
    std::uint64_t _droppedTimeout = 0;
    std::uint64_t _served = 0;
    std::uint64_t _dispatches = 0;
    double _energyJoules = 0.0;
};

/**
 * One serving run: the request stream, the recorder, the shared
 * control plane and the event queue, plus the hooks through which
 * an engine says what differs. Engines derive from it, add their
 * nodes, route the request ids and call simulate().
 */
class ServingRun
{
  public:
    /**
     * @param pool workers (single node) or nodes (cluster) the
     *        hedger and the autoscaler choose among; both need > 1
     * @param nodes node schedulers the run will add (event shards)
     */
    ServingRun(const ServingConfig &cfg, const CtrlConfig &ctrl,
               const DlrmConfig &model, std::uint32_t pool,
               std::uint32_t nodes);
    virtual ~ServingRun();

    ServingRun(const ServingRun &) = delete;
    ServingRun &operator=(const ServingRun &) = delete;

    /**
     * Add the next node. With @p defer_idle, a node whose queue ran
     * dry re-fires its round at the next arrival's tick instead of
     * dispatching at a stale event time.
     */
    NodeScheduler &addNode(std::vector<System *> workers, Fabric *fabric,
                           bool defer_idle);

    /** Fire every node's first round and run the queue dry. */
    void simulate();

    /**
     * Charge work beyond the node's own inference into
     * @p service_us (the cluster's sharded embedding gather).
     */
    virtual void
    chargeGather(NodeScheduler & /*node*/, const InferenceBatch & /*batch*/,
                 const InferenceResult & /*res*/, double /*dispatch_us*/,
                 double * /*service_us*/)
    {
    }

    /** Node a straggler on @p primary clones onto; null = none. */
    virtual NodeScheduler *hedgeNode(NodeScheduler &primary) = 0;

    /** Apply an autoscaler decision (+1 re-add, -1 drain). */
    virtual void scale(int dir, double now_us) = 0;

    const ServingConfig &cfg;
    const CtrlConfig ctrl;
    const std::uint32_t pool;
    const bool adaptive;
    const bool hedging;
    const bool scaling;
    /** Mean arrival gap; sizes the window cap and control period. */
    const double meanGapUs;
    const RequestStream requests;
    ServingRecorder rec;
    ServiceQuantile quantile;
    Autoscaler scaler;
    /** Lane-busy time since the last autoscaler boundary. */
    double intervalBusyUs = 0.0;
    ShardedEventQueue events;
    /** A deque: scheduled events hold node addresses. */
    std::deque<NodeScheduler> nodes;
};

} // namespace centaur

#endif // CENTAUR_CORE_NODE_SCHEDULER_HH
