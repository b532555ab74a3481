/**
 * @file
 * Outside-in simulator benchmark: drives the simulator's public API
 * from one thread for one named workload and prints its metrics.
 *
 *   perfbench_runner --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--trace-out <path>]
 *
 * A run repeats one unit of work (a sweep, or one serving run) until
 * --seconds have passed. Every repetition builds its systems afresh
 * (timed as set-up), simulates (timed as the run phase), serialises
 * the simulated report, and checks it. Repetitions of one seed
 * simulate the same inputs, so their reports must match byte for
 * byte.
 *
 * The first repetition is a warm-up: it is checked and sets
 * peak_rss_mb, but is not timed. In every later repetition each timed
 * unit (an engine run with its set-up, or one sweep point with its
 * set-up) is bracketed by samples of a fixed reference kernel owned by
 * this file (HostReference), and its run-phase time is scaled to the
 * speed at which that kernel takes kReferenceKernelS. A shared host's
 * speed drifts by up to 1.7x over seconds; the kernel sees the same
 * drift, while a change to the simulator moves only the simulator's
 * times. Set-up time is not scaled: it is mostly allocation and page
 * faults, which the kernel does not track.
 *
 * --trace 0 prints the end-to-end metrics: sim_samples_per_s with each
 * timed unit at its median scaled time over repetitions, setup_s as
 * the median set-up time, and peak_rss_mb after the warm-up.
 * --trace 1 alternates untraced and traced repetitions: the traced
 * one wraps every worker System, records a
 * host-time span around each call into a layer's public functions,
 * and afterwards re-runs ReferenceModel::forward on each traced
 * batch to split the functional pass from the timing models. Its
 * simulated report must equal the untraced one byte for byte.
 *
 * The last line of stdout is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hh"
#include "cluster/engine.hh"
#include "cluster/report.hh"
#include "cluster/topology.hh"
#include "core/experiment.hh"
#include "core/fabric.hh"
#include "core/report.hh"
#include "core/server.hh"
#include "core/system_builder.hh"
#include "dlrm/model_registry.hh"
#include "dlrm/workload_spec.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/walltime.hh"

using namespace centaur;

namespace {

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Kind { Sweep, Serve, Cluster };

/** One named workload; the serving fields are unused by Sweep. */
struct Workload
{
    const char *name;
    Kind kind;
    const char *spec;    //!< node backend spec or cluster spec
    const char *model;   //!< registry model name
    const char *traffic; //!< workload spec string (index distribution)
    double ratePerSec;   //!< open-loop Poisson arrival rate
    std::uint32_t requests;
    std::uint32_t workersPerNode;
    std::uint32_t samplesPerRequest;
};

// Rates keep the busiest node below saturation, with no drops and no
// growing backlog: serve_uniform's node runs at 0.47-0.73 simulated
// utilisation over seeds 1-4. On cluster_zipf, affinity routing sends
// every request to one node, which runs at 0.49-0.62.
const Workload kWorkloads[] = {
    {"paper_sweep", Kind::Sweep, "", "", "uniform", 0.0, 0, 0, 0},
    {"serve_uniform", Kind::Serve, "cpu", "dlrm1", "uniform", 8500.0,
     300, 4, 8},
    {"cluster_zipf", Kind::Cluster,
     "cluster:8x(cpu/cache:16)/shard:range:2/route:affinity/"
     "net:1.5:2:25/ctrl:adaptive:hedge",
     "dlrm1", "zipf:1.1", 7000.0, 300, 2, 8},
};

// paper_sweep: the figure path without a serving engine, as runSweep
// does it - a fresh system and one warm-up inference per point.
const char *const kSweepSpecs[] = {"cpu", "cpu+gpu", "cpu+fpga"};
const char *const kSweepModels[] = {"dlrm4", "dlrm6"};
const std::uint32_t kSweepBatches[] = {1, 16, 128};
constexpr int kSweepWarmups = 1;

/** The paper's Centaur-over-CPU speedup envelope (abstract). */
constexpr double kPaperSpeedupMin = 1.7;
constexpr double kPaperSpeedupMax = 17.2;

/** Probability agreement across design points (fpga numerics). */
constexpr float kProbTolerance = 2e-3f;

// ---------------------------------------------------------------------
// Host time and tracing
// ---------------------------------------------------------------------

double
secondsBetween(std::uint64_t t0_us, std::uint64_t t1_us)
{
    return static_cast<double>(t1_us - t0_us) * 1e-6;
}

/** One host-time span: name, start, end and the enclosing span. */
struct Span
{
    const char *name;
    std::uint64_t startUs;
    std::uint64_t endUs;
    int parent; //!< index into the span list, -1 for a root
};

/**
 * In-memory span recorder. Spans nest by call order on the one
 * benchmark thread: open() makes the innermost open span the parent.
 * A disabled tracer records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on) {}

    bool on() const { return _on; }

    int
    open(const char *name)
    {
        if (!_on)
            return -1;
        const int parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back({name, wallMicros(), 0, parent});
        _stack.push_back(static_cast<int>(_spans.size() - 1));
        return _stack.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        _spans[id].endUs = wallMicros();
        _stack.pop_back();
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    bool _on;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** Opens a span for the lifetime of a scope. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name) : _t(t), _id(t.open(name)) {}
    ~SpanScope() { _t.close(_id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &_t;
    int _id;
};

/** What the traced run learns from each System::infer call. */
struct InferLog
{
    /** Traced batches, replayed through ReferenceModel::forward. */
    std::vector<std::pair<std::string, InferenceBatch>> batches;
    std::map<std::string, DlrmConfig> models;
    std::uint64_t calls = 0;
    std::uint64_t samples = 0;
    std::uint64_t mlpMacs = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    Tick emb = 0;
    Tick mlp = 0;
    Tick fabricWait = 0;
    bool valid = true; //!< every result had end >= start
};

/** Span name of an infer call, by the spec's backend pair. */
const char *
inferSpanName(const std::string &spec)
{
    const std::string base = spec.substr(0, spec.find('/'));
    if (base == "cpu+gpu")
        return "core.infer.cpu_gpu";
    if (base == "cpu+fpga")
        return "core.infer.cpu_fpga";
    return "core.infer.cpu";
}

/**
 * Timing wrapper around one worker System. It forwards everything
 * the engines call, keeps the inner clock aligned with its own, and
 * records a span plus the result's counters for every infer().
 */
class TracedSystem final : public System
{
  public:
    TracedSystem(System &inner, Tracer &tracer, InferLog &log)
        : System(inner.config(), inner.power().config()), _inner(inner),
          _tracer(tracer), _log(log), _spanName(inferSpanName(inner.spec()))
    {
    }

    DesignPoint design() const override { return _inner.design(); }
    std::string spec() const override { return _inner.spec(); }
    const CacheTier *cacheTier() const override
    {
        return _inner.cacheTier();
    }

    InferenceResult
    infer(const InferenceBatch &batch) override
    {
        _inner.alignClock(now());
        const int span = _tracer.open(_spanName);
        InferenceResult res = _inner.infer(batch);
        _tracer.close(span);
        alignClock(_inner.now());

        const DlrmConfig &cfg = config();
        _log.models.emplace(cfg.name, cfg);
        _log.batches.emplace_back(cfg.name, batch);
        ++_log.calls;
        _log.samples += batch.batch;
        _log.mlpMacs += cfg.mlpMacsPerSample() * batch.batch;
        _log.llcAccesses += res.emb.llcAccesses + res.mlp.llcAccesses;
        _log.llcMisses += res.emb.llcMisses + res.mlp.llcMisses;
        _log.emb += res.phaseTicks(Phase::Emb);
        _log.mlp += res.phaseTicks(Phase::Mlp);
        _log.fabricWait += res.fabricWait;
        if (res.end < res.start)
            _log.valid = false;
        return res;
    }

  private:
    System &_inner;
    Tracer &_tracer;
    InferLog &_log;
    const char *_spanName;
};

// ---------------------------------------------------------------------
// Host speed reference
// ---------------------------------------------------------------------

/**
 * Time of one HostReference::kernel() call on the host the benchmark
 * was tuned on (4 vCPUs at 2.0 GHz, quiet). Scaled host times read as
 * if the host ran at that speed.
 */
constexpr double kReferenceKernelS = 0.0070;

/**
 * A fixed mini-DLRM kernel that measures the host's current speed:
 * 64 samples, each with 8 pooled gathers of 20 random rows from a
 * 32 MiB table, then a 256-256-128 MLP. It mixes cache-missing
 * gathers and dense arithmetic like the simulator's own host work,
 * and no simulator code runs in it.
 */
class HostReference
{
  public:
    HostReference()
        : _table(kRows * kDim), _w1(kHidden * kHidden),
          _w2(kOut * kHidden), _h(kHidden), _o(kOut)
    {
        for (std::size_t i = 0; i < _table.size(); ++i)
            _table[i] = static_cast<float>(i % 97) * 1e-3f;
        for (std::size_t i = 0; i < _w1.size(); ++i)
            _w1[i] = static_cast<float>(i % 13) * 1e-2f;
        for (std::size_t i = 0; i < _w2.size(); ++i)
            _w2[i] = static_cast<float>(i % 11) * 1e-2f;
    }

    /**
     * Samples the kernel and returns the scale for the host work done
     * since the previous mark(): kReferenceKernelS over the mean of
     * the two samples. The first mark returns 0.
     */
    double
    mark()
    {
        const double now = sample();
        const double scale =
            _last > 0.0 ? kReferenceKernelS / (0.5 * (_last + now)) : 0.0;
        _last = now;
        _samples.push_back(now);
        return scale;
    }

    /** Every kernel time mark() has taken, in seconds. */
    const std::vector<double> &samples() const { return _samples; }

  private:
    static constexpr std::size_t kRows = std::size_t{1} << 18;
    static constexpr std::size_t kDim = 32;
    static constexpr std::size_t kTables = 8;
    static constexpr std::size_t kHidden = kTables * kDim;
    static constexpr std::size_t kOut = 128;

    /** Median host seconds of three kernel calls. */
    double
    sample()
    {
        double t[3];
        for (double &ti : t) {
            const std::uint64_t t0 = wallMicros();
            _sink += kernel();
            ti = secondsBetween(t0, wallMicros());
        }
        std::sort(t, t + 3);
        return t[1];
    }

    float
    kernel()
    {
        float acc = 0.0f;
        for (int sample = 0; sample < 64; ++sample) {
            for (std::size_t t = 0; t < kTables; ++t) {
                float pooled[kDim] = {};
                for (int l = 0; l < 20; ++l) {
                    _x ^= _x << 13;
                    _x ^= _x >> 7;
                    _x ^= _x << 17;
                    const float *row = &_table[(_x % kRows) * kDim];
                    for (std::size_t k = 0; k < kDim; ++k)
                        pooled[k] += row[k];
                }
                std::copy(pooled, pooled + kDim, &_h[t * kDim]);
            }
            for (std::size_t r = 0; r < kHidden; ++r) {
                float a = 0.0f;
                for (std::size_t c = 0; c < kHidden; ++c)
                    a += _w1[r * kHidden + c] * _h[c];
                _h[r] = a > 0.0f ? a * 1e-3f : 0.0f;
            }
            for (std::size_t r = 0; r < kOut; ++r) {
                float a = 0.0f;
                for (std::size_t c = 0; c < kHidden; ++c)
                    a += _w2[r * kHidden + c] * _h[c];
                _o[r] = a;
            }
            acc += _o[0];
        }
        return acc;
    }

    std::vector<float> _table;
    std::vector<float> _w1;
    std::vector<float> _w2;
    std::vector<float> _h;
    std::vector<float> _o;
    std::uint64_t _x = 88172645463325252ull;
    volatile float _sink = 0.0f;
    double _last = 0.0;
    std::vector<double> _samples;
};

/** HostReference::mark(), or 0 for an untimed repetition. */
double
markHost(HostReference *host)
{
    return host != nullptr ? host->mark() : 0.0;
}

// ---------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/** The outcome of one repetition of a workload's unit of work. */
struct Rep
{
    double setupS = 0.0;
    double runS = 0.0;
    /**
     * Run-phase host time of each timed unit: the whole engine run,
     * or one sweep point. Every repetition has the same units.
     */
    std::vector<double> unitS;
    /** Host-speed scale of each unit's time; 0 in the warm-up. */
    std::vector<double> unitScale;
    std::uint64_t samples = 0; //!< simulated samples in the run phase
    std::uint64_t ops = 0;     //!< requests, or sweep points
    std::uint64_t failed = 0;
    std::string report;        //!< the simulated report, serialised
    std::vector<std::string> problems;
    Metrics layer;             //!< per-layer metrics (traced reps)

    bool timed() const { return !unitScale.empty() && unitScale[0] > 0.0; }
};

bool
finiteNonNeg(double v)
{
    return std::isfinite(v) && v >= 0.0;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Simulated samples per host second, with every timed unit at its
 * median over repetitions of the scaled host time (raw host time
 * with `scaled` false).
 */
double
medianRate(const std::vector<Rep> &reps, bool scaled = true)
{
    std::vector<const Rep *> timed;
    for (const Rep &r : reps)
        if (r.timed())
            timed.push_back(&r);
    if (timed.empty())
        return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < timed.front()->unitS.size(); ++i) {
        std::vector<double> unit;
        for (const Rep *r : timed)
            unit.push_back(r->unitS[i] * (scaled ? r->unitScale[i] : 1.0));
        total += median(unit);
    }
    return ratio(static_cast<double>(timed.front()->samples), total);
}

/** Checks shared by the node and cluster serving aggregates. */
void
checkServing(const ServingStats &s, std::uint32_t requests, Rep &rep)
{
    if (s.offered != requests)
        rep.problems.push_back("offered != configured requests");
    if (s.served + s.droppedQueueFull + s.droppedTimeout != s.offered)
        rep.problems.push_back("served + dropped != offered");
    for (double v : {s.meanServiceUs, s.meanQueueUs, s.meanLatencyUs,
                     s.p50Us, s.p95Us, s.p99Us, s.p999Us,
                     s.maxLatencyUs})
        if (!finiteNonNeg(v))
            rep.problems.push_back("non-finite or negative latency");
}

ServingConfig
servingConfig(const Workload &w, std::uint64_t seed)
{
    ServingConfig cfg;
    cfg.applyWorkload(parseWorkloadSpec(w.traffic));
    cfg.arrivalRatePerSec = w.ratePerSec;
    cfg.requests = w.requests;
    cfg.batchPerRequest = w.samplesPerRequest;
    cfg.workers = w.workersPerNode;
    cfg.maxCoalescedBatch = 1;
    cfg.contend = true;
    cfg.seed = seed;
    return cfg;
}

/** Fill the modelled-system metrics common to both serving scopes. */
void
servingModelled(const ServingStats &s, Metrics &m)
{
    m["modelled.latency_sim_us.p50"] = s.p50Us;
    m["modelled.latency_sim_us.p99"] = s.p99Us;
    m["modelled.queue_sim_us.mean"] = s.meanQueueUs;
    m["modelled.drop_frac"] = s.dropRate();
    m["modelled.utilization"] = s.utilization;
    m["ctrlplane.hedge_dispatches"] =
        static_cast<double>(s.ctrl.hedgeDispatches);
    m["ctrlplane.hedge_win_frac"] =
        ratio(static_cast<double>(s.ctrl.hedgeWins),
              static_cast<double>(s.ctrl.hedgeDispatches));
}

void
cacheTierCounts(const CacheStats &c, Metrics &m)
{
    m["cachetier.lookups"] = static_cast<double>(c.hits + c.misses);
    m["cachetier.hit_frac"] = c.hitRate();
    m["cachetier.evictions"] = static_cast<double>(c.evictions);
}

std::uint64_t
fabricGrants(const std::vector<FabricResourceStats> &fabric)
{
    std::uint64_t g = 0;
    for (const FabricResourceStats &f : fabric)
        g += f.grants;
    return g;
}

/** Wrap every worker of a fleet; @p views is rewritten in place. */
std::vector<std::unique_ptr<TracedSystem>>
wrapWorkers(std::vector<System *> &views, Tracer &tr, InferLog &log)
{
    std::vector<std::unique_ptr<TracedSystem>> wrapped;
    for (System *&w : views) {
        wrapped.push_back(std::make_unique<TracedSystem>(*w, tr, log));
        w = wrapped.back().get();
    }
    return wrapped;
}

/**
 * The engines draw each request's payload from one generator; re-draw
 * the same stream after the run to time that layer from outside.
 */
void
replayWorkload(const DlrmConfig &model, const ServingConfig &cfg,
               Tracer &tr)
{
    SpanScope replay(tr, "bench.workload_replay");
    WorkloadGenerator gen(model, cfg.workloadConfig());
    for (std::uint32_t r = 0; r < cfg.requests; ++r) {
        SpanScope next(tr, "dlrm.workload_next");
        (void)gen.next();
    }
}

void
runServe(const Workload &w, std::uint64_t seed, Tracer &tr,
         HostReference *host, InferLog &log, Rep &rep)
{
    const DlrmConfig model = parseModel(w.model);
    const ServingConfig cfg = servingConfig(w, seed);

    // The node runServingSim builds: one fabric, the worker fleet.
    markHost(host);
    std::uint64_t t0 = wallMicros();
    const int setup = tr.open("core.setup.make_workers");
    Fabric fabric(cfg.fabricCfg);
    auto owned = makeWorkers(w.spec, model, cfg, &fabric);
    tr.close(setup);
    rep.setupS = secondsBetween(t0, wallMicros());

    std::vector<System *> workers;
    for (auto &s : owned)
        workers.push_back(s.get());
    std::vector<std::unique_ptr<TracedSystem>> wrapped;
    if (tr.on())
        wrapped = wrapWorkers(workers, tr, log);

    const std::uint64_t ev0 = globalSimEvents();
    t0 = wallMicros();
    const int run = tr.open("core.engine.run");
    const ServingStats s =
        ServingEngine(std::move(workers), cfg, &fabric).run();
    tr.close(run);
    rep.runS = secondsBetween(t0, wallMicros());
    rep.unitS = {rep.runS};
    rep.unitScale = {markHost(host)};
    const std::uint64_t events = globalSimEvents() - ev0;

    {
        SpanScope span(tr, "core.report");
        rep.report = toJson(s).dump();
    }
    checkServing(s, cfg.requests, rep);
    rep.ops = s.offered;
    rep.samples = s.served * cfg.batchPerRequest;

    Metrics &m = rep.layer;
    m["sim.events"] = static_cast<double>(events);
    m["core.fabric_grants"] = static_cast<double>(fabricGrants(s.fabric));
    cacheTierCounts(s.cache, m);
    servingModelled(s, m);
    if (tr.on())
        replayWorkload(model, cfg, tr);
}

void
runCluster(const Workload &w, std::uint64_t seed, Tracer &tr,
           HostReference *host, InferLog &log, Rep &rep)
{
    const DlrmConfig model = parseModel(w.model);
    const ClusterSpec spec = parseClusterSpec(w.spec);
    const ServingConfig cfg = servingConfig(w, seed);

    markHost(host);
    std::uint64_t t0 = wallMicros();
    const int setup = tr.open("core.setup.topology");
    ClusterTopology topo(spec, model, cfg);
    tr.close(setup);
    rep.setupS = secondsBetween(t0, wallMicros());

    std::vector<std::unique_ptr<TracedSystem>> wrapped;
    if (tr.on()) {
        for (std::uint32_t n = 0; n < topo.nodes(); ++n) {
            auto node = wrapWorkers(topo.node(n).workers, tr, log);
            for (auto &ts : node)
                wrapped.push_back(std::move(ts));
        }
    }

    const std::uint64_t ev0 = globalSimEvents();
    t0 = wallMicros();
    const int run = tr.open("core.engine.run");
    const ClusterStats s = ClusterEngine(topo, cfg).run();
    tr.close(run);
    rep.runS = secondsBetween(t0, wallMicros());
    rep.unitS = {rep.runS};
    rep.unitScale = {markHost(host)};
    const std::uint64_t events = globalSimEvents() - ev0;

    {
        SpanScope span(tr, "core.report");
        rep.report = toJson(s).dump();
    }
    checkServing(s.total, cfg.requests, rep);
    rep.ops = s.total.offered;
    rep.samples = s.total.served * cfg.batchPerRequest;

    Metrics &m = rep.layer;
    std::uint64_t grants = 0;
    CacheStats cache;
    for (const ClusterNodeStats &ns : s.perNode) {
        grants += fabricGrants(ns.fabric);
        cache += ns.cache;
    }
    m["sim.events"] = static_cast<double>(events);
    m["core.fabric_grants"] = static_cast<double>(grants);
    cacheTierCounts(cache, m);
    servingModelled(s.total, m);
    m["cluster.remote_reads"] = static_cast<double>(s.remoteReads);
    m["cluster.remote_read_bytes"] =
        static_cast<double>(s.remoteReadBytes);
    m["cluster.connection_setups"] =
        static_cast<double>(s.connectionSetups);
    if (tr.on())
        replayWorkload(model, cfg, tr);
}

void
runSweepRep(std::uint64_t seed, Tracer &tr, HostReference *host,
            InferLog &log, Rep &rep)
{
    std::vector<SweepEntry> points;
    markHost(host);
    for (const char *spec : kSweepSpecs) {
        for (const char *model_name : kSweepModels) {
            const ModelInfo *info = findModel(model_name);
            const DlrmConfig &cfg = info->config;
            for (std::uint32_t batch : kSweepBatches) {
                const std::uint64_t t0 = wallMicros();
                const int setup = tr.open("core.setup.make_system");
                std::unique_ptr<System> sys = makeSystem(spec, cfg);
                tr.close(setup);
                rep.setupS += secondsBetween(t0, wallMicros());

                System *target = sys.get();
                std::unique_ptr<TracedSystem> wrapped;
                if (tr.on()) {
                    wrapped = std::make_unique<TracedSystem>(*sys, tr, log);
                    target = wrapped.get();
                }

                const std::uint64_t t1 = wallMicros();
                WorkloadConfig wl;
                wl.batch = batch;
                wl.seed = modelSweepSeed(*info, batch) + seed;
                WorkloadGenerator gen(cfg, wl);
                InferenceResult res;
                for (int i = 0; i <= kSweepWarmups; ++i) {
                    const int next = tr.open("dlrm.workload_next");
                    const InferenceBatch b = gen.next();
                    tr.close(next);
                    res = target->infer(b);
                    rep.samples += batch;
                }
                rep.unitS.push_back(secondsBetween(t1, wallMicros()));
                rep.runS += rep.unitS.back();
                rep.unitScale.push_back(markHost(host));

                SweepEntry entry;
                entry.modelName = cfg.name;
                entry.spec = spec;
                entry.workload = workloadSpecName(wl);
                entry.preset = info->paperPreset;
                entry.batch = batch;
                entry.seed = wl.seed;
                entry.result = std::move(res);
                points.push_back(std::move(entry));
            }
        }
    }
    {
        SpanScope span(tr, "core.report");
        Json report = Json::array();
        for (const SweepEntry &p : points)
            report.push(toJson(p));
        rep.report = report.dump();
    }
    rep.ops = points.size();

    // Per-point checks; a point that fails one is a failed operation.
    std::vector<double> latency_us;
    std::vector<double> speedup;
    for (const SweepEntry &p : points) {
        bool ok = p.result.end >= p.result.start &&
                  p.result.probabilities.size() == p.batch;
        for (float prob : p.result.probabilities)
            ok = ok && std::isfinite(prob) && prob > 0.0f && prob < 1.0f;
        const SweepEntry *cpu = nullptr;
        for (const SweepEntry &q : points)
            if (q.spec == "cpu" && q.modelName == p.modelName &&
                q.batch == p.batch)
                cpu = &q;
        if (cpu == nullptr ||
            cpu->result.probabilities.size() !=
                p.result.probabilities.size())
            ok = false;
        else
            for (std::size_t i = 0; i < p.result.probabilities.size(); ++i)
                ok = ok && std::fabs(p.result.probabilities[i] -
                                     cpu->result.probabilities[i]) <=
                               kProbTolerance;
        if (!ok) {
            ++rep.failed;
            rep.problems.push_back("sweep point " + p.spec + "/" +
                                   p.modelName + "/b" +
                                   std::to_string(p.batch) +
                                   " failed its checks");
        }
        latency_us.push_back(usFromTicks(p.result.latency()));
        if (p.spec == "cpu+fpga" && cpu != nullptr &&
            p.result.latency() > 0)
            speedup.push_back(
                static_cast<double>(cpu->result.latency()) /
                static_cast<double>(p.result.latency()));
    }

    Metrics &m = rep.layer;
    m["modelled.latency_sim_us.p50"] = percentile(latency_us, 0.50);
    m["modelled.latency_sim_us.p99"] = percentile(latency_us, 0.99);
    if (!speedup.empty()) {
        m["modelled.centaur_speedup.min"] =
            *std::min_element(speedup.begin(), speedup.end());
        m["modelled.centaur_speedup.max"] =
            *std::max_element(speedup.begin(), speedup.end());
    }
}

/** Sum of durations and self times per span name. */
struct SpanTotals
{
    std::map<std::string, double> durS;
    std::map<std::string, double> selfS;
    std::vector<double> inferUs; //!< each System::infer call
};

SpanTotals
totals(const std::vector<Span> &spans)
{
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span &sp : spans)
        if (sp.parent >= 0)
            child_s[sp.parent] += secondsBetween(sp.startUs, sp.endUs);
    SpanTotals t;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double d = secondsBetween(spans[i].startUs, spans[i].endUs);
        t.durS[spans[i].name] += d;
        t.selfS[spans[i].name] += d - child_s[i];
        if (std::strncmp(spans[i].name, "core.infer.", 11) == 0)
            t.inferUs.push_back(d * 1e6);
    }
    return t;
}

/**
 * One repetition. With tracing on, every layer metric is derived
 * from the spans and the infer log once the repetition is over.
 */
Rep
runRep(const Workload &w, std::uint64_t seed, Tracer &tr,
       HostReference *host)
{
    Rep rep;
    InferLog log;
    const int root = tr.open("bench.rep");
    switch (w.kind) {
      case Kind::Sweep:
        runSweepRep(seed, tr, host, log, rep);
        break;
      case Kind::Serve:
        runServe(w, seed, tr, host, log, rep);
        break;
      case Kind::Cluster:
        runCluster(w, seed, tr, host, log, rep);
        break;
    }
    if (!log.valid)
        rep.problems.push_back("an inference ended before it started");
    if (!rep.problems.empty() && rep.failed == 0)
        rep.failed = rep.ops; // a run-level check fails the whole run
    if (!tr.on()) {
        tr.close(root);
        return rep;
    }

    // Re-run the functional pass on every traced batch, after the run
    // phase so it does not inflate the traced run's host time.
    {
        SpanScope replay(tr, "bench.forward_replay");
        std::map<std::string, std::unique_ptr<ReferenceModel>> refs;
        for (const auto &[name, cfg] : log.models)
            refs[name] = std::make_unique<ReferenceModel>(cfg);
        for (const auto &[name, batch] : log.batches) {
            SpanScope fwd(tr, "dlrm.forward");
            (void)refs[name]->forward(batch);
        }
    }
    tr.close(root);

    const SpanTotals t = totals(tr.spans());
    auto dur = [&](const char *n) {
        const auto it = t.durS.find(n);
        return it == t.durS.end() ? 0.0 : it->second;
    };
    auto self = [&](const char *n) {
        const auto it = t.selfS.find(n);
        return it == t.selfS.end() ? 0.0 : it->second;
    };
    Metrics &m = rep.layer;
    m["core.infer_s.cpu"] = dur("core.infer.cpu");
    m["core.infer_s.cpu_gpu"] = dur("core.infer.cpu_gpu");
    m["core.infer_s.cpu_fpga"] = dur("core.infer.cpu_fpga");
    m["core.infer_s"] = m["core.infer_s.cpu"] +
                        m["core.infer_s.cpu_gpu"] +
                        m["core.infer_s.cpu_fpga"];
    m["core.infer_host_us.p50"] = percentile(t.inferUs, 0.50);
    m["core.infer_host_us.p99"] = percentile(t.inferUs, 0.99);
    m["core.infer_host_us.samples"] = static_cast<double>(t.inferUs.size());
    m["dlrm.forward_s"] = dur("dlrm.forward");
    m["core.timing_model_s"] = m["core.infer_s"] - m["dlrm.forward_s"];
    m["core.engine_self_s"] = self("core.engine.run");
    m["core.setup.make_system_s"] = dur("core.setup.make_system");
    m["core.setup.make_workers_s"] = dur("core.setup.make_workers");
    m["core.setup.topology_s"] = dur("core.setup.topology");
    m["core.setup_s"] = m["core.setup.make_system_s"] +
                        m["core.setup.make_workers_s"] +
                        m["core.setup.topology_s"];
    m["dlrm.workload_next_s"] = dur("dlrm.workload_next");
    m["core.report_s"] = dur("core.report");

    const double infers = static_cast<double>(log.calls);
    m["core.infer_calls"] = infers;
    m["core.samples"] = static_cast<double>(log.samples);
    m["dlrm.mlp_macs"] = static_cast<double>(log.mlpMacs);
    m["cache.llc_accesses"] = static_cast<double>(log.llcAccesses);
    m["cache.llc_miss_frac"] =
        ratio(static_cast<double>(log.llcMisses),
              static_cast<double>(log.llcAccesses));
    m["modelled.emb_sim_us.mean"] = ratio(usFromTicks(log.emb), infers);
    m["modelled.mlp_sim_us.mean"] = ratio(usFromTicks(log.mlp), infers);
    m["modelled.fabric_wait_sim_us.mean"] =
        ratio(usFromTicks(log.fabricWait), infers);
    m["trace.spans"] = static_cast<double>(tr.spans().size());
    return rep;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** Every per-layer metric with its unit, in print order. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"core.infer_s", "s"},
    {"core.infer_s.cpu", "s"},
    {"core.infer_s.cpu_gpu", "s"},
    {"core.infer_s.cpu_fpga", "s"},
    {"core.infer_host_us.p50", "us"},
    {"core.infer_host_us.p99", "us"},
    {"core.infer_host_us.samples", "count"},
    {"dlrm.forward_s", "s"},
    {"core.timing_model_s", "s"},
    {"core.engine_self_s", "s"},
    {"core.setup_s", "s"},
    {"core.setup.make_system_s", "s"},
    {"core.setup.make_workers_s", "s"},
    {"core.setup.topology_s", "s"},
    {"dlrm.workload_next_s", "s"},
    {"core.report_s", "s"},
    {"sim.events", "count"},
    {"core.infer_calls", "count"},
    {"core.samples", "count"},
    {"cache.llc_accesses", "count"},
    {"cache.llc_miss_frac", "ratio"},
    {"dlrm.mlp_macs", "count"},
    {"core.fabric_grants", "count"},
    {"cachetier.lookups", "count"},
    {"cachetier.hit_frac", "ratio"},
    {"cachetier.evictions", "count"},
    {"ctrlplane.hedge_dispatches", "count"},
    {"ctrlplane.hedge_win_frac", "ratio"},
    {"cluster.remote_reads", "count"},
    {"cluster.remote_read_bytes", "B"},
    {"cluster.connection_setups", "count"},
    {"modelled.latency_sim_us.p50", "us"},
    {"modelled.latency_sim_us.p99", "us"},
    {"modelled.queue_sim_us.mean", "us"},
    {"modelled.emb_sim_us.mean", "us"},
    {"modelled.mlp_sim_us.mean", "us"},
    {"modelled.fabric_wait_sim_us.mean", "us"},
    {"modelled.drop_frac", "ratio"},
    {"modelled.utilization", "ratio"},
    {"modelled.centaur_speedup.min", "x"},
    {"modelled.centaur_speedup.max", "x"},
    {"trace.sim_samples_per_s.untraced", "samples/s"},
    {"trace.sim_samples_per_s.raw", "samples/s"},
    {"trace.sim_samples_per_s.traced", "samples/s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
    {"host.reference_kernel_s", "s"},
};

/** Metrics that are pure functions of the simulation (and seed). */
bool
isDeterministic(const std::string &name)
{
    return name.rfind("modelled.", 0) == 0 || name == "sim.events" ||
           name == "core.infer_calls" || name == "core.samples" ||
           name.rfind("cache.", 0) == 0 || name == "dlrm.mlp_macs" ||
           name == "core.fabric_grants" ||
           name.rfind("cachetier.", 0) == 0 ||
           name.rfind("ctrlplane.", 0) == 0 ||
           name.rfind("cluster.", 0) == 0 ||
           name == "core.infer_host_us.samples" || name == "trace.spans";
}

void
describe(const Workload &w, std::uint64_t seed)
{
    std::printf("workload %s seed %llu\n", w.name,
                static_cast<unsigned long long>(seed));
    if (w.kind == Kind::Sweep) {
        std::printf("  sweep: {cpu, cpu+gpu, cpu+fpga} x {dlrm4, dlrm6} "
                    "x batch {1, 16, 128}, uniform, fresh system + %d "
                    "warm-up per point\n",
                    kSweepWarmups);
        return;
    }
    std::printf("  spec %s, model %s, %s, open-loop Poisson %.0f req/s, "
                "%u requests x %u samples, %u workers per node\n",
                w.spec, w.model, w.traffic, w.ratePerSec, w.requests,
                w.samplesPerRequest, w.workersPerNode);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (*end != '\0')
                return false;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(a.seconds > 0.0))
                return false;
        } else if (k == "--trace") {
            a.trace = std::atoi(v);
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
           (a.trace == 0 || a.trace == 1);
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    out << "{\"unit\": \"us\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"name\": \"" << s.name << "\", \"start\": "
            << s.startUs - spans.front().startUs
            << ", \"end\": " << s.endUs - spans.front().startUs
            << ", \"parent\": " << s.parent << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> --seconds "
                     "<s> --trace <0|1> [--trace-out <path>]\n",
                     argv[0]);
        return 2;
    }
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (args.workload == cand.name)
            w = &cand;
    if (w == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    describe(*w, args.seed);

    // Untraced repetitions, interleaved with traced ones under
    // --trace 1, until the time budget is spent.
    const std::uint64_t deadline =
        wallMicros() + static_cast<std::uint64_t>(args.seconds * 1e6);
    std::vector<Rep> plain;
    std::vector<Rep> traced;
    std::vector<Span> first_spans;

    // Warm-up: first-touch page faults and lazy set-up happen here.
    // Peak RSS is read after it, before the reference kernel's table
    // exists. Later repetitions redo the same work; their peak only
    // reflects how the allocator reuses freed memory.
    {
        Tracer off(false);
        plain.push_back(runRep(*w, args.seed, off, nullptr));
    }
    const double peak_rss_mb = peakRssMb();

    HostReference host;
    auto run_traced = [&] {
        Tracer on(true);
        traced.push_back(runRep(*w, args.seed, on, &host));
        if (first_spans.empty())
            first_spans = on.spans();
    };
    do {
        // Alternate which side of a traced/untraced pair runs first.
        const bool traced_first = args.trace == 1 && plain.size() % 2 == 0;
        if (traced_first)
            run_traced();
        Tracer off(false);
        plain.push_back(runRep(*w, args.seed, off, &host));
        if (args.trace == 1 && !traced_first)
            run_traced();
    } while (wallMicros() < deadline);

    // Correctness: every repetition passed its checks and reproduced
    // the first untraced report byte for byte.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    for (std::vector<Rep> *reps : {&plain, &traced}) {
        for (Rep &r : *reps) {
            if (r.report != plain.front().report) {
                r.problems.push_back(reps == &traced
                                         ? "traced report differs"
                                         : "report not reproducible");
                r.failed = r.ops;
            }
            attempted += r.ops;
            failed += r.failed;
            problems.insert(problems.end(), r.problems.begin(),
                            r.problems.end());
        }
    }

    std::vector<double> setups;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        const Rep &r = plain[i];
        double run_scaled_s = 0.0;
        for (std::size_t u = 0; u < r.unitS.size(); ++u)
            run_scaled_s += r.unitS[u] * r.unitScale[u];
        if (r.timed())
            setups.push_back(r.setupS);
        std::printf("  rep %zu%s: setup %.4f s, run %.4f s, scaled run "
                    "%.4f s\n",
                    i + 1, i == 0 ? " (warm-up)" : "", r.setupS, r.runS,
                    run_scaled_s);
    }

    Json metrics = Json::object();
    auto emit = [&](const std::string &name, double value,
                    const char *unit) {
        std::printf("%-36s %16.6g %s\n", name.c_str(), value, unit);
        Json v = Json::object();
        v["value"] = value;
        v["unit"] = unit;
        metrics[name] = std::move(v);
    };

    if (args.trace == 0) {
        std::printf("%zu repetitions after the warm-up\n",
                    plain.size() - 1);
        emit("sim_samples_per_s", medianRate(plain), "samples/s");
        emit("setup_s", median(setups), "s");
        emit("peak_rss_mb", peak_rss_mb, "MB");
    } else {
        std::map<std::string, std::vector<double>> series;
        for (const Rep &r : traced)
            for (const auto &[k, v] : r.layer)
                series[k].push_back(v);
        // Scaled medians on both sides, like sim_samples_per_s.
        const double untraced = medianRate(plain);
        const double traced_rate = medianRate(traced);
        series["trace.sim_samples_per_s.untraced"] = {untraced};
        series["trace.sim_samples_per_s.raw"] = {
            medianRate(plain, false)};
        series["host.reference_kernel_s"] = {median(host.samples())};
        series["trace.sim_samples_per_s.traced"] = {traced_rate};
        series["trace.overhead_frac"] = {ratio(untraced, traced_rate) -
                                         1.0};
        std::printf("%zu untraced + %zu traced repetitions after the "
                    "warm-up\n",
                    plain.size() - 1, traced.size());
        for (const auto &[name, unit] : kLayerMetrics) {
            const std::vector<double> &vals = series[name];
            if (isDeterministic(name) &&
                std::any_of(vals.begin(), vals.end(),
                            [&](double v) { return v != vals.front(); }))
                problems.push_back(std::string(name) +
                                   " differs across traced repetitions");
            emit(name, median(vals), unit);
        }
        if (w->kind == Kind::Sweep)
            std::printf("modelled.centaur_speedup (cpu+fpga over cpu, per "
                        "point) beside the paper's %.1f-%.1fx envelope; "
                        "the model is unvalidated per point, so no error "
                        "figure is given\n",
                        kPaperSpeedupMin, kPaperSpeedupMax);
        if (!args.traceOut.empty())
            writeSpans(args.traceOut, first_spans);
    }

    for (const std::string &p : problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());

    Json out = Json::object();
    out["correct"] = failed == 0 && problems.empty();
    out["attempted"] = static_cast<std::int64_t>(attempted);
    out["failed"] = static_cast<std::int64_t>(failed);
    out["metrics"] = metrics;
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
