#include "dlrm/reference_model.hh"

#include "sim/log.hh"

namespace centaur {

ReferenceModel::ReferenceModel(const DlrmConfig &cfg)
    : _cfg(cfg),
      _layout(MemoryLayout::buildFor(cfg.numTables, cfg.tableBytes()))
{
    if (cfg.bottomMlp.empty() || cfg.bottomMlp.back() != cfg.embeddingDim)
        fatal("bottom MLP must end at embeddingDim so its output can "
              "join the feature interaction");
    _tables.reserve(cfg.numTables);
    for (std::uint32_t t = 0; t < cfg.numTables; ++t)
        _tables.push_back(std::make_unique<VirtualEmbeddingTable>(
            t, cfg.rowsPerTable, cfg.embeddingDim,
            _layout.tableBases[t]));
    _bottom = std::make_unique<Mlp>(1, cfg.bottomLayerDims(),
                                    Activation::Relu, Activation::Relu);
    _top = std::make_unique<Mlp>(2, cfg.topLayerDims(),
                                 Activation::Relu, Activation::None);
}

std::vector<std::vector<float>>
ReferenceModel::reduceEmbeddings(const InferenceBatch &batch) const
{
    const std::uint32_t dim = _cfg.embeddingDim;
    std::vector<std::vector<float>> reduced(_cfg.numTables);
    for (std::uint32_t t = 0; t < _cfg.numTables; ++t) {
        const auto &idx = batch.indices[t];
        reduced[t].assign(
            static_cast<std::size_t>(batch.batch) * dim, 0.0f);
        for (std::uint32_t b = 0; b < batch.batch; ++b) {
            float *out = reduced[t].data() +
                         static_cast<std::size_t>(b) * dim;
            for (std::uint32_t j = 0; j < batch.lookupsPerTable; ++j) {
                const std::uint64_t row =
                    idx[static_cast<std::size_t>(b) *
                            batch.lookupsPerTable + j];
                _tables[t]->accumulateRow(row, out);
            }
        }
    }
    return reduced;
}

std::vector<float>
ReferenceModel::interactSample(
    const float *bottom_out,
    const std::vector<const float *> &reduced) const
{
    const std::uint32_t dim = _cfg.embeddingDim;
    std::vector<const float *> vecs;
    vecs.push_back(bottom_out);
    for (const float *r : reduced)
        vecs.push_back(r);

    std::vector<float> out;
    out.reserve(_cfg.interactionDim());
    // Bottom output passes through first (Figure 1's concatenation).
    for (std::uint32_t d = 0; d < dim; ++d)
        out.push_back(bottom_out[d]);
    // Lower-triangle pairwise dot products.
    for (std::size_t i = 1; i < vecs.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            float dot = 0.0f;
            for (std::uint32_t d = 0; d < dim; ++d)
                dot += vecs[i][d] * vecs[j][d];
            out.push_back(dot);
        }
    }
    return out;
}

ForwardResult
ReferenceModel::forward(const InferenceBatch &batch) const
{
    ForwardResult res;
    const std::uint32_t dim = _cfg.embeddingDim;

    res.reduced = reduceEmbeddings(batch);
    res.bottomOut = _bottom->forwardBatch(batch.dense.data(),
                                          batch.batch);

    const std::uint32_t top_in_dim = _cfg.interactionDim();
    res.topIn.resize(static_cast<std::size_t>(batch.batch) *
                     top_in_dim);
    for (std::uint32_t b = 0; b < batch.batch; ++b) {
        std::vector<const float *> reduced_ptrs;
        reduced_ptrs.reserve(_cfg.numTables);
        for (std::uint32_t t = 0; t < _cfg.numTables; ++t)
            reduced_ptrs.push_back(res.reduced[t].data() +
                                   static_cast<std::size_t>(b) * dim);
        const auto feat = interactSample(
            res.bottomOut.data() + static_cast<std::size_t>(b) * dim,
            reduced_ptrs);
        std::copy(feat.begin(), feat.end(),
                  res.topIn.begin() +
                      static_cast<std::size_t>(b) * top_in_dim);
    }

    res.logits = _top->forwardBatch(res.topIn.data(), batch.batch);
    res.probabilities.resize(res.logits.size());
    for (std::size_t i = 0; i < res.logits.size(); ++i)
        res.probabilities[i] = referenceSigmoid(res.logits[i]);
    return res;
}

} // namespace centaur
