/**
 * @file
 * Exact unsigned division by a divisor fixed at construction, without
 * a hardware divide on the hot path.
 *
 * A power-of-two divisor is a shift and a mask. Any other divisor d
 * (d >= 3) uses the rounded-up reciprocal m = ceil(2^64 / d) and takes
 * q = floor(n * m / 2^64), the high half of one 64x64-bit multiply.
 *
 * Exactness. Let e = m * d - 2^64, so 0 < e < d, and n = q * d + r
 * with 0 <= r < d. Then
 *
 *     n * m / 2^64 = q + (r + n * e / 2^64) / d.
 *
 * If n * e < 2^64 the bracket is below r + 1 <= d, so the floor is q.
 * Since e < d, every n <= floor((2^64 - 1) / d) = m - 1 qualifies
 * (n * e < n * d <= 2^64 - 1). For n >= m, quot() falls back to the
 * hardware divide; a caller's numerators sit on one side of that
 * bound for long stretches, so the branch predicts.
 */

#ifndef CENTAUR_SIM_DIVIDER_HH
#define CENTAUR_SIM_DIVIDER_HH

#include <cstdint>

#include "sim/log.hh"

namespace centaur {

class Divider
{
  public:
    explicit Divider(std::uint64_t d) : _d(d)
    {
        if (d == 0)
            fatal("Divider: division by zero");
        if ((d & (d - 1)) == 0) {
            _pow2 = true;
            while ((std::uint64_t{1} << _shift) < d)
                ++_shift;
        } else {
            _mul = ~std::uint64_t{0} / d + 1;
        }
    }

    std::uint64_t divisor() const { return _d; }

    /** floor(@p n / divisor()), exact for every @p n. */
    std::uint64_t
    quot(std::uint64_t n) const
    {
        if (_pow2)
            return n >> _shift;
        if (n < _mul)
            return static_cast<std::uint64_t>((U128{n} * _mul) >> 64);
        return n / _d;
    }

    /** @p n mod divisor(), exact for every @p n. */
    std::uint64_t
    rem(std::uint64_t n) const
    {
        if (_pow2)
            return n & (_d - 1);
        return n - quot(n) * _d;
    }

  private:
    __extension__ using U128 = unsigned __int128;

    std::uint64_t _d;
    std::uint64_t _mul = 0; //!< ceil(2^64 / d) when d is not a power of 2
    unsigned _shift = 0;    //!< log2(d) when d is a power of 2
    bool _pow2 = false;
};

} // namespace centaur

#endif // CENTAUR_SIM_DIVIDER_HH
