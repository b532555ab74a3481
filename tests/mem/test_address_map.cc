/**
 * @file
 * Unit and property tests for the DRAM address interleaver.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/address_map.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

TEST(AddressMap, IsDeterministic)
{
    AddressMap map(4, 32, 128);
    EXPECT_TRUE(map.map(0x12345640) == map.map(0x12345640));
}

TEST(AddressMap, CoordinatesStayInBounds)
{
    AddressMap map(4, 32, 128);
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        const auto c = map.map(rng.next() % (1ULL << 40));
        EXPECT_LT(c.channel, 4u);
        EXPECT_LT(c.bank, 32u);
        EXPECT_LT(c.column, 128u);
    }
}

TEST(AddressMap, SameLineSameCoordinate)
{
    AddressMap map(4, 32, 128);
    // All byte addresses within one 64 B line map identically.
    const Addr base = 0xABCDE000;
    const auto ref = map.map(base);
    for (Addr off = 1; off < 64; ++off)
        EXPECT_TRUE(map.map(base + off) == ref);
}

TEST(AddressMap, SequentialLinesSpreadAcrossChannels)
{
    AddressMap map(4, 32, 128);
    std::vector<int> counts(4, 0);
    for (Addr line = 0; line < 4096; ++line)
        ++counts[map.map(line * 64).channel];
    for (int c : counts)
        EXPECT_NEAR(c, 1024, 64);
}

TEST(AddressMap, RandomLinesSpreadAcrossBanks)
{
    AddressMap map(4, 32, 128);
    Rng rng(2);
    std::vector<int> counts(32, 0);
    const int n = 64000;
    for (int i = 0; i < n; ++i)
        ++counts[map.map(rng.nextBelow(1 << 26) * 64).bank];
    for (int c : counts)
        EXPECT_NEAR(c, n / 32, n / 32 * 0.25);
}

TEST(AddressMap, PowerOfTwoStridesStillSpreadBanks)
{
    // Embedding rows at a 128 B pitch (the paper's vector size) must
    // not all land in one bank thanks to the XOR fold.
    AddressMap map(4, 32, 128);
    std::vector<int> counts(32, 0);
    for (Addr row = 0; row < 32000; ++row)
        ++counts[map.map(row * 128).bank];
    int nonzero = 0;
    for (int c : counts)
        nonzero += (c > 0);
    EXPECT_EQ(nonzero, 32);
}

TEST(AddressMap, DistinctLinesWithinRowGetDistinctColumns)
{
    AddressMap map(1, 1, 128); // degenerate: single channel/bank
    std::vector<bool> seen(128, false);
    for (Addr line = 0; line < 128; ++line) {
        const auto c = map.map(line * 64);
        EXPECT_FALSE(seen[c.column]);
        seen[c.column] = true;
    }
}

TEST(AddressMap, AccessorsReflectConstruction)
{
    AddressMap map(6, 48, 256);
    EXPECT_EQ(map.channels(), 6u);
    EXPECT_EQ(map.banksPerChannel(), 48u);
    EXPECT_EQ(map.linesPerRow(), 256u);
}

// The interleaving formula as first written, with hardware / and %.
// AddressMap::map computes it through Divider (shifts and masks for
// power-of-two geometries, a multiply-high otherwise) and must agree
// on every address.
DramCoord
referenceMap(Addr addr, std::uint32_t channels, std::uint32_t banks,
             std::uint32_t lines_per_row)
{
    const std::uint64_t line = addr / 64;
    const auto channel =
        static_cast<std::uint32_t>((line ^ (line >> 7)) % channels);
    const std::uint64_t chan_line = line / channels;
    const auto column =
        static_cast<std::uint32_t>(chan_line % lines_per_row);
    const std::uint64_t row_major = chan_line / lines_per_row;
    const std::uint64_t row = row_major / banks;
    const auto bank =
        static_cast<std::uint32_t>((row_major ^ row) % banks);
    return DramCoord{channel, bank, row, column};
}

TEST(AddressMap, LockstepWithDividingFormula)
{
    const std::uint32_t geometries[][3] = {
        {4, 32, 128}, {6, 48, 256}, {1, 1, 128}};
    for (const auto &g : geometries) {
        AddressMap map(g[0], g[1], g[2]);
        Rng rng(g[0] * 1000 + g[1]);
        std::vector<Addr> addrs = {0, 63, 64, (Addr{1} << 48) - 1,
                                   ~Addr{0}};
        for (int i = 0; i < 100000; ++i)
            addrs.push_back(rng.next() & ((Addr{1} << 48) - 1));
        for (const Addr a : addrs) {
            const DramCoord want = referenceMap(a, g[0], g[1], g[2]);
            const DramCoord got = map.map(a);
            ASSERT_EQ(got.channel, want.channel) << std::hex << a;
            ASSERT_EQ(got.bank, want.bank) << std::hex << a;
            ASSERT_EQ(got.row, want.row) << std::hex << a;
            ASSERT_EQ(got.column, want.column) << std::hex << a;
        }
    }
}

} // namespace
} // namespace centaur
