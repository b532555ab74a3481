/**
 * @file
 * Divider against the hardware divide: every path (shift, multiply-
 * high, divide fallback) must give the exact quotient and remainder.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/divider.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

void
expectExact(const Divider &div, std::uint64_t n)
{
    const std::uint64_t d = div.divisor();
    ASSERT_EQ(div.quot(n), n / d) << n << " / " << d;
    ASSERT_EQ(div.rem(n), n % d) << n << " % " << d;
}

TEST(Divider, ExactOnEveryPath)
{
    const std::uint64_t kMax = ~std::uint64_t{0};
    // Powers of two, small and large non-powers of two (28672: the
    // Broadwell LLC's set count; 7800000: tREFI in ps), and divisors
    // whose reciprocal error is largest.
    const std::vector<std::uint64_t> divisors = {
        1,          2,          3,          4,        5,
        6,          7,          48,         128,      3072,
        28672,      65535,      65537,      81920,    7800000,
        0xFFFFFFFF, 0x100000001, kMax / 3,  kMax / 2 + 2, kMax};
    Rng rng(11);
    for (const std::uint64_t d : divisors) {
        const Divider div(d);
        ASSERT_EQ(div.divisor(), d);
        // Around the multiply-high bound floor((2^64 - 1) / d) and
        // around multiples of d on both sides of it.
        const std::uint64_t bound = kMax / d;
        for (const std::uint64_t base : {std::uint64_t{0}, bound, d,
                                         bound / d * d, kMax - d}) {
            for (std::uint64_t off = 0; off < 4; ++off) {
                expectExact(div, base + off);
                expectExact(div, base - off);
            }
        }
        expectExact(div, kMax);
        for (int i = 0; i < 20000; ++i) {
            expectExact(div, rng.next());
            expectExact(div, rng.next() >> rng.nextBelow(64));
        }
    }
}

TEST(DividerDeath, RejectsZero)
{
    EXPECT_DEATH(Divider(0), "division by zero");
}

} // namespace
} // namespace centaur
