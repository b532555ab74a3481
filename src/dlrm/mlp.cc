#include "dlrm/mlp.hh"

#include <cmath>

#include "dlrm/embedding_table.hh"
#include "sim/log.hh"

namespace centaur {

Mlp::Mlp(std::uint64_t mlp_id, std::vector<std::uint32_t> layer_dims,
         Activation hidden_act, Activation final_act)
    : _dims(std::move(layer_dims)), _hiddenAct(hidden_act),
      _finalAct(final_act)
{
    if (_dims.size() < 2)
        fatal("an MLP needs at least input and output widths");
    for (auto d : _dims)
        if (d == 0)
            fatal("MLP layer widths must be nonzero");

    _weights.resize(layers());
    _biases.resize(layers());
    for (std::size_t layer = 0; layer < layers(); ++layer) {
        const std::uint32_t in_dim = _dims[layer];
        const std::uint32_t out_dim = _dims[layer + 1];
        // Xavier-ish scale so activations neither vanish nor blow up.
        const float scale = 0.9f / std::sqrt(static_cast<float>(in_dim));
        std::vector<float> &w = _weights[layer];
        w.resize(static_cast<std::size_t>(out_dim) * in_dim);
        _biases[layer].resize(out_dim);
        for (std::uint32_t o = 0; o < out_dim; ++o) {
            const std::uint64_t prefix =
                paramgen::hashPrefix(mlp_id * 2 + 1, layer, o);
            float *row = w.data() + static_cast<std::size_t>(o) * in_dim;
            for (std::uint32_t i = 0; i < in_dim; ++i)
                row[i] = paramgen::finishFloat(prefix, i, scale);
            _biases[layer][o] =
                paramgen::hashedFloat(mlp_id * 2 + 2, layer, o, 0, 0.01f);
        }
    }
}

std::vector<float>
Mlp::forward(const float *in) const
{
    return forwardBatch(in, 1);
}

std::vector<float>
Mlp::forwardBatch(const float *in, std::uint32_t batch) const
{
    std::vector<float> cur(in, in + static_cast<std::size_t>(batch) *
                                       inputDim());
    for (std::size_t layer = 0; layer + 1 < _dims.size(); ++layer) {
        const std::uint32_t in_dim = _dims[layer];
        const std::uint32_t out_dim = _dims[layer + 1];
        const bool last = layer + 2 == _dims.size();
        const Activation act = last ? _finalAct : _hiddenAct;
        std::vector<float> next(
            static_cast<std::size_t>(batch) * out_dim);
        const float *weights = _weights[layer].data();
        const float *biases = _biases[layer].data();
        for (std::uint32_t b = 0; b < batch; ++b) {
            const float *x = cur.data() +
                             static_cast<std::size_t>(b) * in_dim;
            float *y = next.data() +
                       static_cast<std::size_t>(b) * out_dim;
            for (std::uint32_t o = 0; o < out_dim; ++o) {
                const float *w =
                    weights + static_cast<std::size_t>(o) * in_dim;
                float acc = biases[o];
                for (std::uint32_t i = 0; i < in_dim; ++i)
                    acc += w[i] * x[i];
                if (act == Activation::Relu && acc < 0.0f)
                    acc = 0.0f;
                y[o] = acc;
            }
        }
        cur = std::move(next);
    }
    return cur;
}

std::uint64_t
Mlp::paramCount() const
{
    std::uint64_t params = 0;
    for (std::size_t i = 0; i + 1 < _dims.size(); ++i)
        params += static_cast<std::uint64_t>(_dims[i]) * _dims[i + 1] +
                  _dims[i + 1];
    return params;
}

std::uint64_t
Mlp::macsPerSample() const
{
    std::uint64_t macs = 0;
    for (std::size_t i = 0; i + 1 < _dims.size(); ++i)
        macs += static_cast<std::uint64_t>(_dims[i]) * _dims[i + 1];
    return macs;
}

float
referenceSigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

} // namespace centaur
