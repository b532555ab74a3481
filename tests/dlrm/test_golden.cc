/**
 * @file
 * Golden pins of the functional DLRM numerics.
 *
 * Every other numerics test compares two instances of the same code,
 * so a change to the parameter synthesis or to the accumulation order
 * would pass them unnoticed. These tests pin exact fp32 bit patterns
 * of synthesized weights, biases, embedding elements and whole
 * forward passes; any refactor of the functional pass must reproduce
 * them bit for bit.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dlrm/model_registry.hh"
#include "dlrm/reference_model.hh"

namespace centaur {
namespace {

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** A batch built from closed-form indices and dense features. */
InferenceBatch
fixedBatch(const DlrmConfig &cfg, std::uint32_t batch)
{
    InferenceBatch b;
    b.batch = batch;
    b.lookupsPerTable = cfg.lookupsPerTable;
    b.indices.resize(cfg.numTables);
    for (std::uint32_t t = 0; t < cfg.numTables; ++t)
        for (std::uint32_t s = 0; s < batch; ++s)
            for (std::uint32_t j = 0; j < cfg.lookupsPerTable; ++j)
                b.indices[t].push_back(
                    (t * 7919ULL + s * 104729ULL + j * 1299709ULL) %
                    cfg.rowsPerTable);
    for (std::uint32_t i = 0; i < batch * cfg.denseDim; ++i)
        b.dense.push_back(static_cast<float>((i * 37U) % 23U) / 23.0f -
                          0.5f);
    return b;
}

TEST(Golden, MlpWeightsAndBiases)
{
    const Mlp mlp(1, {13, 512, 256, 64});
    EXPECT_EQ(bitsOf(mlp.weight(0, 0, 0)), 0x3e2c2c80U);
    EXPECT_EQ(bitsOf(mlp.weight(0, 511, 12)), 0x3d54ddd0U);
    EXPECT_EQ(bitsOf(mlp.weight(1, 100, 200)), 0x3c84b0d6U);
    EXPECT_EQ(bitsOf(mlp.weight(2, 63, 255)), 0x3c86d14cU);
    EXPECT_EQ(bitsOf(mlp.bias(0, 0)), 0xbc015be4U);
    EXPECT_EQ(bitsOf(mlp.bias(2, 63)), 0x3bd02400U);
}

TEST(Golden, EmbeddingElementsAndRows)
{
    const VirtualEmbeddingTable table(3, 1000000, 32, 0);
    EXPECT_EQ(bitsOf(table.element(0, 0)), 0xbcfd2ebdU);
    EXPECT_EQ(bitsOf(table.element(999999, 31)), 0xbcdffc27U);
    EXPECT_EQ(bitsOf(table.element(12345, 7)), 0xbae6499aU);

    std::vector<float> row(32);
    table.row(424242, row.data());
    EXPECT_EQ(bitsOf(row[0]), 0xbd15677dU);
    EXPECT_EQ(bitsOf(row[8]), 0x3b5b6d1aU);
    EXPECT_EQ(bitsOf(row[16]), 0xbcd526c7U);
    EXPECT_EQ(bitsOf(row[24]), 0xbaf29467U);
}

struct ForwardPin
{
    const char *model;
    std::array<std::uint32_t, 4> probabilities;
    std::array<std::uint32_t, 4> logits;
    std::uint32_t lastTableReduced5;
    std::uint32_t bottomOut3;
};

TEST(Golden, ReferenceForward)
{
    const ForwardPin pins[] = {
        {"dlrm1",
         {0x3f00b4e4U, 0x3f004ffeU, 0x3f004d25U, 0x3f0050cbU},
         {0x3c34e458U, 0x3b9ffc98U, 0x3b9a4b00U, 0x3ba19670U},
         0xbe7651cbU, 0x3c47e570U},
        {"dlrm6",
         {0x3f004d67U, 0x3f005f48U, 0x3f0052a6U, 0x3f004b77U},
         {0x3b9ace8cU, 0x3bbe908cU, 0x3ba54c35U, 0x3b96eda5U},
         0xbc7fd74cU, 0x3d70fcd4U},
        {"rm-wide",
         {0x3f00096fU, 0x3f00208cU, 0x3f00107cU, 0x3f004e7aU},
         {0x3a16f208U, 0x3b023207U, 0x3a83e1d9U, 0x3b9cf41dU},
         0xbcc8388eU, 0x3cc35164U},
    };
    for (const ForwardPin &pin : pins) {
        SCOPED_TRACE(pin.model);
        const DlrmConfig cfg = parseModel(pin.model);
        const ReferenceModel model(cfg);
        const ForwardResult res = model.forward(fixedBatch(cfg, 4));
        ASSERT_EQ(res.probabilities.size(), 4U);
        ASSERT_EQ(res.logits.size(), 4U);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(bitsOf(res.probabilities[i]),
                      pin.probabilities[i]);
            EXPECT_EQ(bitsOf(res.logits[i]), pin.logits[i]);
        }
        EXPECT_EQ(bitsOf(res.reduced.back()[5]), pin.lastTableReduced5);
        EXPECT_EQ(bitsOf(res.bottomOut[3]), pin.bottomOut3);
    }
}

} // namespace
} // namespace centaur
