/**
 * @file
 * End-to-end inference result: latency, the paper's phase breakdown
 * (IDX / EMB / DNF / MLP / Other, Figures 5 and 14), effective
 * embedding throughput (Figures 7 and 13), per-layer cache
 * statistics (Figure 6), functional outputs and energy (Figure 15).
 */

#ifndef CENTAUR_CORE_RESULT_HH
#define CENTAUR_CORE_RESULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "power/power_model.hh"
#include "sim/units.hh"

namespace centaur {

/** Execution phases used in the latency breakdowns. */
enum class Phase : std::uint8_t
{
    Idx = 0,   //!< CPU->FPGA sparse index fetch (Centaur only)
    Emb = 1,   //!< embedding gathers + reductions
    Dnf = 2,   //!< dense feature fetch (Centaur only)
    Mlp = 3,   //!< bottom + top MLP execution
    Other = 4, //!< interaction, sigmoid, glue, setup, writeback
};

constexpr std::size_t kNumPhases = 5;

/** Phase display name. */
const char *phaseName(Phase p);

/** Cache/instruction statistics attributed to one layer type. */
struct LayerStats
{
    std::uint64_t instructions = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;

    double
    llcMissRate() const
    {
        return llcAccesses ? static_cast<double>(llcMisses) /
                                 static_cast<double>(llcAccesses)
                           : 0.0;
    }

    double
    mpki() const
    {
        return instructions
                   ? static_cast<double>(llcMisses) * 1000.0 /
                         static_cast<double>(instructions)
                   : 0.0;
    }
};

/** Everything measured about one end-to-end inference. */
struct InferenceResult
{
    /**
     * Legacy design-point anchor. For composed systems beyond the
     * paper's three points this holds the nearest anchor (by MLP
     * backend); `spec` is the authoritative identity.
     */
    DesignPoint design = DesignPoint::CpuOnly;
    /** Backend-composition spec string (core/backend.hh registry). */
    std::string spec;
    std::uint32_t batch = 0;

    Tick start = 0;
    Tick end = 0;
    std::array<Tick, kNumPhases> phase{};

    /** Effective embedding gather throughput (GB/s). */
    double effectiveEmbGBps = 0.0;

    /**
     * Ticks spent queued behind other workers on the node's shared
     * resources (core/fabric.hh), summed per resource grant. Zero
     * without a fabric or on an uncontended node; under contention
     * the stalls also extend the phase the delayed segment belongs
     * to, so phases still sum to the latency.
     */
    Tick fabricWait = 0;

    /**
     * Hot-row cache tier outcome of this inference (zero without an
     * attached tier, cachetier/cache_tier.hh): lookups served from
     * the tier, lookups that went to the memory system, and the
     * fabric/NIC occupancy the hits avoided.
     */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    Tick cacheSavedTicks = 0;

    LayerStats emb;
    LayerStats mlp;

    /**
     * Functional outputs (event probabilities per sample), filled by
     * systems built with the functional pass on - the
     * SystemBuilder default, which makeSystem, the sweeps and the
     * paper suites use. Serving and cluster workers (makeWorkers)
     * are timing-only and leave this empty.
     */
    std::vector<float> probabilities;

    double powerWatts = 0.0;
    double energyJoules = 0.0;

    Tick latency() const { return end - start; }

    Tick phaseTicks(Phase p) const
    {
        return phase[static_cast<std::size_t>(p)];
    }

    double
    phaseShare(Phase p) const
    {
        const Tick total = latency();
        return total ? static_cast<double>(phaseTicks(p)) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Throughput in inferences per second. */
    double
    inferencesPerSec() const
    {
        const double secs = secFromTicks(latency());
        return secs > 0.0 ? 1.0 / secs : 0.0;
    }

    /** Energy efficiency in inferences per joule. */
    double
    efficiency() const
    {
        return energyJoules > 0.0 ? 1.0 / energyJoules : 0.0;
    }
};

} // namespace centaur

#endif // CENTAUR_CORE_RESULT_HH
