/**
 * @file
 * Inference request synthesis: batches of sparse indices and dense
 * features, with uniform (DLRM-default), Zipfian (production-skew)
 * or trace-replayed index streams, fully deterministic under a seed.
 * The string grammar naming these knobs lives in
 * dlrm/workload_spec.hh.
 */

#ifndef CENTAUR_DLRM_WORKLOAD_HH
#define CENTAUR_DLRM_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dlrm/model_config.hh"
#include "sim/random.hh"

namespace centaur {

/** How sparse indices are drawn. */
enum class IndexDistribution : std::uint8_t
{
    Uniform, //!< DLRM's bundled generator (what the paper measures)
    Zipf,    //!< production-like popularity skew
    Trace,   //!< replay a recorded trace (dlrm/trace.hh) verbatim
};

/** How serving-request arrivals are spaced in time. */
enum class ArrivalProcess : std::uint8_t
{
    Poisson, //!< memoryless arrivals at the configured mean rate
    /**
     * Bursty arrivals: geometric trains at burstFactor x the mean
     * rate separated by longer idle gaps, preserving the mean rate.
     */
    Burst,
    /**
     * Diurnal arrivals: a Poisson process whose rate swings
     * sinusoidally around the mean by diurnalAmplitude over a
     * (time-compressed) diurnalPeriodSec cycle - the slow rate
     * modulation the autoscaler tracks.
     */
    Diurnal,
};

const char *indexDistributionName(IndexDistribution dist);
const char *arrivalProcessName(ArrivalProcess arrival);

/** One latency class of the serving SLO grammar ("/slo:..."). */
struct SloClass
{
    std::string name;      //!< class label, e.g. "rt" or "batch"
    double p99TargetUs = 0.0; //!< p99 latency target

    bool
    operator==(const SloClass &o) const
    {
        return name == o.name && p99TargetUs == o.p99TargetUs;
    }
};

/** Workload knobs. */
struct WorkloadConfig
{
    std::uint32_t batch = 1;
    IndexDistribution dist = IndexDistribution::Uniform;
    double zipfSkew = 0.9;
    std::uint64_t seed = 42;

    /** Trace file to replay when dist == Trace (cycles at the end). */
    std::string tracePath;

    /**
     * Serving arrival process. arrivalRatePerSec == 0 means "not
     * specified by the workload": the serving layer keeps its own
     * configured rate. Single-inference sweeps ignore these.
     */
    ArrivalProcess arrival = ArrivalProcess::Poisson;
    double arrivalRatePerSec = 0.0;
    double burstFactor = 1.0; //!< peak-to-mean ratio for Burst

    /** Rate swing fraction (0..1) when arrival == Diurnal. */
    double diurnalAmplitude = 0.0;
    /** Compressed diurnal cycle length (simulated seconds). */
    double diurnalPeriodSec = 0.25;

    /**
     * SLO latency classes ("/slo:<class>:<p99_us>" parts, in spec
     * order). Requests are stamped round-robin in id order
     * (class = id % classes), so the class axis never consumes RNG
     * draws. Empty means "one unnamed class, no target".
     */
    std::vector<SloClass> sloClasses;
};

/** One generated inference batch. */
struct InferenceBatch
{
    std::uint32_t batch = 0;
    std::uint32_t lookupsPerTable = 0;
    /** indices[table][sample * lookupsPerTable + j] */
    std::vector<std::vector<std::uint64_t>> indices;
    /** dense[sample * denseDim + d] */
    std::vector<float> dense;

    /**
     * Per-lookup hot-row cache hit mask, parallel to `indices`
     * (cacheHit[table][flat] == 1 means the row was resident in the
     * attached CacheTier and the stage backends skip its DRAM / PCIe
     * / NIC charge). Empty - the generator's default - means "no
     * cache tier": every backend takes its unmodified legacy path,
     * which is what keeps cache:0 specs byte-identical to their
     * no-cache twins. Mutable because the tier annotates the batch
     * inside System::infer (const surface); a batch is annotated by
     * at most one system, so never share one InferenceBatch object
     * between a cached and an uncached system.
     */
    mutable std::vector<std::vector<std::uint8_t>> cacheHit;

    /** Was lookup @p flat of @p table a cache hit? */
    bool
    rowCached(std::size_t table, std::size_t flat) const
    {
        return table < cacheHit.size() &&
               flat < cacheHit[table].size() &&
               cacheHit[table][flat] != 0;
    }

    /** Total lookups the cache tier marked as hits. */
    std::uint64_t
    cachedLookups() const
    {
        std::uint64_t n = 0;
        for (const auto &t : cacheHit)
            for (std::uint8_t hit : t)
                n += hit;
        return n;
    }

    std::uint64_t
    totalLookups() const
    {
        std::uint64_t total = 0;
        for (const auto &t : indices)
            total += t.size();
        return total;
    }

    /** Useful bytes gathered, given the embedding vector size. */
    std::uint64_t
    gatheredBytes(std::uint64_t vector_bytes) const
    {
        return totalLookups() * vector_bytes;
    }
};

/**
 * The Zipf alias table over @p rows rows at @p skew, built on first
 * use and then shared, immutable, for the life of the process by
 * every caller asking for the same rows and the same skew bit
 * pattern. A table over all rows of an embedding table takes
 * milliseconds to build, and every serving or cluster run builds a
 * generator. Thread-safe: concurrent callers of one key get one
 * pointer.
 */
std::shared_ptr<const ZipfAliasSampler>
sharedZipfAliasSampler(std::uint64_t rows, double skew);

/**
 * Deterministic batch generator for one model configuration.
 *
 * Synthetic distributions (Uniform, Zipf) draw from the seeded RNG;
 * the Zipf draw is O(1) via an alias table shared by every generator
 * of the same row count and skew (sharedZipfAliasSampler; all
 * tables share the model's row count). Trace replay loads the
 * file once into a per-sample stream and re-batches it to
 * cfg.batch, cycling at the end - the recording fixes the *samples*
 * (indices + dense features, bit for bit), the runner still owns
 * the batch axis, so a finite recording can drive any sweep.
 */
class WorkloadGenerator
{
  public:
    WorkloadGenerator(const DlrmConfig &model, const WorkloadConfig &cfg);
    ~WorkloadGenerator();

    /** Generate the next batch (advances the stream). */
    InferenceBatch next();

    const WorkloadConfig &config() const { return _cfg; }

    /** Samples per replay cycle (0 unless dist == Trace). */
    std::size_t traceSamples() const { return _traceSamples.size(); }

  private:
    /** One recorded inference sample of a loaded trace. */
    struct TraceSample
    {
        /** indices[table][j], lookupsPerTable values per table */
        std::vector<std::vector<std::uint64_t>> indices;
        std::vector<float> dense; //!< denseDim values
    };

    std::uint64_t drawIndex();

    DlrmConfig _model;
    WorkloadConfig _cfg;
    Rng _rng;
    /** dist == Zipf only */
    std::shared_ptr<const ZipfAliasSampler> _zipf;
    std::vector<TraceSample> _traceSamples;
    std::size_t _traceNext = 0;
};

} // namespace centaur

#endif // CENTAUR_DLRM_WORKLOAD_HH
