/**
 * @file
 * A fixed-capacity FIFO of completion ticks: the outstanding misses of
 * a gather's miss or credit window. It allocates once, at
 * construction; a full window must be popped before the next push.
 */

#ifndef CENTAUR_SIM_TICK_WINDOW_HH
#define CENTAUR_SIM_TICK_WINDOW_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/log.hh"
#include "sim/units.hh"

namespace centaur {

class TickWindow
{
  public:
    explicit TickWindow(std::uint32_t capacity) : _ticks(capacity)
    {
        if (capacity == 0)
            fatal("TickWindow: a window must hold at least one tick");
    }

    bool full() const { return _size == _ticks.size(); }

    /** Append @p done as the newest tick. */
    void
    push(Tick done)
    {
        std::size_t slot = _head + _size;
        if (slot >= _ticks.size())
            slot -= _ticks.size();
        _ticks[slot] = done;
        ++_size;
    }

    /** Remove and return the oldest tick. */
    Tick
    pop()
    {
        const Tick oldest = _ticks[_head];
        if (++_head == _ticks.size())
            _head = 0;
        --_size;
        return oldest;
    }

    /** The latest of @p t and every tick held. */
    Tick
    latest(Tick t) const
    {
        for (std::size_t i = 0; i < _size; ++i)
            t = std::max(t, _ticks[(_head + i) % _ticks.size()]);
        return t;
    }

    void
    clear()
    {
        _head = 0;
        _size = 0;
    }

  private:
    std::vector<Tick> _ticks;
    std::size_t _head = 0; //!< index of the oldest tick
    std::size_t _size = 0;
};

} // namespace centaur

#endif // CENTAUR_SIM_TICK_WINDOW_HH
