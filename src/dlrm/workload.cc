#include "dlrm/workload.hh"

#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>

#include "dlrm/trace.hh"
#include "sim/log.hh"

namespace centaur {

const char *
indexDistributionName(IndexDistribution dist)
{
    switch (dist) {
      case IndexDistribution::Uniform:
        return "uniform";
      case IndexDistribution::Zipf:
        return "zipf";
      case IndexDistribution::Trace:
        return "trace";
    }
    return "?";
}

const char *
arrivalProcessName(ArrivalProcess arrival)
{
    switch (arrival) {
      case ArrivalProcess::Poisson:
        return "poisson";
      case ArrivalProcess::Burst:
        return "burst";
      case ArrivalProcess::Diurnal:
        return "diurnal";
    }
    return "?";
}

std::shared_ptr<const ZipfAliasSampler>
sharedZipfAliasSampler(std::uint64_t rows, double skew)
{
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, std::uint64_t>,
                    std::shared_ptr<const ZipfAliasSampler>>
        memo;
    std::uint64_t skew_bits = 0;
    std::memcpy(&skew_bits, &skew, sizeof(skew_bits));
    // Built under the lock: a second caller of the same key waits
    // for the first build instead of repeating it.
    const std::lock_guard<std::mutex> lock(mu);
    auto &slot = memo[{rows, skew_bits}];
    if (!slot)
        slot = std::make_shared<const ZipfAliasSampler>(rows, skew);
    return slot;
}

WorkloadGenerator::WorkloadGenerator(const DlrmConfig &model,
                                     const WorkloadConfig &cfg)
    : _model(model), _cfg(cfg), _rng(cfg.seed)
{
    switch (cfg.dist) {
      case IndexDistribution::Uniform:
        break;
      case IndexDistribution::Zipf:
        _zipf = sharedZipfAliasSampler(model.rowsPerTable, cfg.zipfSkew);
        break;
      case IndexDistribution::Trace: {
        if (cfg.tracePath.empty())
            fatal("trace workload needs a trace path");
        std::ifstream is(cfg.tracePath);
        if (!is)
            fatal("cannot open trace '", cfg.tracePath, "'");
        TraceReader reader(is);
        if (!reader.isValid())
            fatal("'", cfg.tracePath,
                  "' is not a valid centaur trace");
        if (!reader.compatibleWith(model))
            fatal("trace '", cfg.tracePath, "' geometry (",
                  reader.numTables(), " tables x ",
                  reader.lookupsPerTable(), " lookups, dense ",
                  reader.denseDim(), ") does not match model ",
                  model.name);
        // Flatten the recording into a per-sample stream so next()
        // can re-batch it to cfg.batch.
        InferenceBatch batch;
        std::size_t batches = 0;
        while (reader.next(batch)) {
            ++batches;
            for (std::uint32_t s = 0; s < batch.batch; ++s) {
                TraceSample sample;
                sample.indices.resize(batch.indices.size());
                for (std::size_t t = 0; t < batch.indices.size();
                     ++t) {
                    const auto begin = batch.indices[t].begin() +
                                       static_cast<std::ptrdiff_t>(
                                           s * batch.lookupsPerTable);
                    sample.indices[t].assign(
                        begin, begin + batch.lookupsPerTable);
                }
                const auto dense_begin =
                    batch.dense.begin() +
                    static_cast<std::ptrdiff_t>(s * model.denseDim);
                sample.dense.assign(dense_begin,
                                    dense_begin + model.denseDim);
                _traceSamples.push_back(std::move(sample));
            }
        }
        if (!reader.isValid())
            fatal("trace '", cfg.tracePath, "' has a malformed record"
                  " after batch ", batches);
        if (_traceSamples.empty())
            fatal("trace '", cfg.tracePath, "' contains no batches");
        break;
      }
    }
}

WorkloadGenerator::~WorkloadGenerator() = default;

std::uint64_t
WorkloadGenerator::drawIndex()
{
    if (_cfg.dist == IndexDistribution::Zipf)
        return _zipf->sample(_rng);
    return _rng.nextBelow(_model.rowsPerTable);
}

InferenceBatch
WorkloadGenerator::next()
{
    if (_cfg.dist == IndexDistribution::Trace) {
        InferenceBatch out;
        out.batch = _cfg.batch;
        out.lookupsPerTable = _model.lookupsPerTable;
        out.indices.resize(_model.numTables);
        for (auto &table : out.indices)
            table.reserve(static_cast<std::size_t>(_cfg.batch) *
                          _model.lookupsPerTable);
        out.dense.reserve(static_cast<std::size_t>(_cfg.batch) *
                          _model.denseDim);
        for (std::uint32_t s = 0; s < _cfg.batch; ++s) {
            const TraceSample &sample = _traceSamples[_traceNext];
            _traceNext = (_traceNext + 1) % _traceSamples.size();
            for (std::size_t t = 0; t < sample.indices.size(); ++t)
                out.indices[t].insert(out.indices[t].end(),
                                      sample.indices[t].begin(),
                                      sample.indices[t].end());
            out.dense.insert(out.dense.end(), sample.dense.begin(),
                             sample.dense.end());
        }
        return out;
    }

    InferenceBatch out;
    out.batch = _cfg.batch;
    out.lookupsPerTable = _model.lookupsPerTable;
    out.indices.resize(_model.numTables);
    const std::size_t per_table =
        static_cast<std::size_t>(_cfg.batch) * _model.lookupsPerTable;
    for (auto &table : out.indices) {
        table.resize(per_table);
        for (auto &idx : table)
            idx = drawIndex();
    }
    out.dense.resize(static_cast<std::size_t>(_cfg.batch) *
                     _model.denseDim);
    for (auto &v : out.dense)
        v = static_cast<float>(_rng.nextDouble(-1.0, 1.0));
    return out;
}

} // namespace centaur
