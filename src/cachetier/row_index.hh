/**
 * @file
 * Flat key -> node index and u32-linked recency lists for the
 * hot-row cache tier (cachetier/cache_tier.hh) and the FPGA IOTLB
 * (interconnect/iommu.hh).
 *
 * `RowIndex` is an open-addressed hash table of `u64` keys to `u32`
 * node ids: a fixed multiplicative (Fibonacci) hash, linear probing,
 * a power-of-two slot count that doubles once the table is half
 * full, and backward-shift deletion, so erasing leaves no tombstones
 * and a lookup stops at the first empty slot. Every key is a legal
 * key (`~0` included); an empty slot is marked by its node id
 * `kNoNode`, never by a key value. The slot array starts empty and
 * grows with occupancy only: a table that holds a few hundred rows
 * never pays for the capacity it could hold.
 *
 * `RowList` is a node pool with intrusive doubly-linked lists whose
 * links are `u32` pool indices; freed nodes go on a free list that
 * the next push reuses. Each node belongs to one of up to
 * `kMaxSegments` lists (segmented LRU keeps probation and protected
 * rows in one pool). `RowLru` pairs the two into the plain keyed LRU
 * the ghost-admission filter and the IOTLB use.
 *
 * Determinism: the hash is fixed (no `std::hash`, no seed), so the
 * slot layout is a pure function of the insert/erase stream. No
 * decision reads the layout: victims come from the lists, which are
 * ordered by access recency, and the only walk over the slots,
 * `keys()`, returns its keys sorted.
 */

#ifndef CENTAUR_CACHETIER_ROW_INDEX_HH
#define CENTAUR_CACHETIER_ROW_INDEX_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace centaur {

/** Open-addressed `u64` key -> `u32` node map (see file comment). */
class RowIndex
{
  public:
    /** Node id of "no node": absent key, empty slot, list end. */
    static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

    /** Node of @p key, or kNoNode when absent. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        if (_slots.empty())
            return kNoNode;
        for (std::size_t i = homeSlot(key);; i = (i + 1) & _mask) {
            const Slot &s = _slots[i];
            if (s.node == kNoNode || s.key == key)
                return s.node;
        }
    }

    /** Map an absent @p key to @p node (node != kNoNode). */
    void
    insert(std::uint64_t key, std::uint32_t node)
    {
        if (2 * (_size + 1) > _slots.size())
            grow();
        place(key, node);
        ++_size;
    }

    /** Remove @p key; returns its node, or kNoNode if absent. */
    std::uint32_t
    erase(std::uint64_t key)
    {
        if (_slots.empty())
            return kNoNode;
        std::size_t hole = homeSlot(key);
        for (;; hole = (hole + 1) & _mask) {
            if (_slots[hole].node == kNoNode)
                return kNoNode;
            if (_slots[hole].key == key)
                break;
        }
        const std::uint32_t node = _slots[hole].node;
        // Backward shift: pull every later key of the probe run whose
        // home does not lie cyclically in (hole, j] into the hole, so
        // each key stays reachable from its home without tombstones.
        for (std::size_t j = (hole + 1) & _mask;
             _slots[j].node != kNoNode; j = (j + 1) & _mask) {
            const std::size_t home = homeSlot(_slots[j].key);
            if (((j - home) & _mask) >= ((j - hole) & _mask)) {
                _slots[hole] = _slots[j];
                hole = j;
            }
        }
        _slots[hole].node = kNoNode;
        --_size;
        return node;
    }

    std::size_t size() const { return _size; }

    /** Slots allocated (0, or a power of two >= 2 x size()). */
    std::size_t slotCount() const { return _slots.size(); }

    /** Slot @p key hashes to at the current slot count, which must
     *  be non-zero (tests pick colliding keys with it). */
    std::size_t
    homeSlot(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> _shift);
    }

    /** Every key, ascending (the one walk over the slots). */
    std::vector<std::uint64_t>
    keys() const
    {
        std::vector<std::uint64_t> out;
        out.reserve(_size);
        for (const Slot &s : _slots)
            if (s.node != kNoNode)
                out.push_back(s.key);
        std::sort(out.begin(), out.end());
        return out;
    }

    /** Forget every key and release the slots. */
    void
    clear()
    {
        std::vector<Slot>().swap(_slots);
        _mask = 0;
        _shift = 64;
        _size = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t node = kNoNode;
    };

    static constexpr std::size_t kMinSlots = 16;

    void
    place(std::uint64_t key, std::uint32_t node)
    {
        std::size_t i = homeSlot(key);
        while (_slots[i].node != kNoNode)
            i = (i + 1) & _mask;
        _slots[i] = Slot{key, node};
    }

    void
    grow()
    {
        std::vector<Slot> old(
            std::max(kMinSlots, 2 * _slots.size()));
        old.swap(_slots);
        _mask = _slots.size() - 1;
        _shift = 64;
        for (std::size_t n = _slots.size(); n > 1; n >>= 1)
            --_shift;
        for (const Slot &s : old)
            if (s.node != kNoNode)
                place(s.key, s.node);
    }

    std::vector<Slot> _slots;
    std::size_t _mask = 0;
    /** 64 - log2(slot count); 64 while no slots exist. */
    unsigned _shift = 64;
    std::size_t _size = 0;
};

/**
 * Pool of keyed nodes threaded on up to kMaxSegments doubly-linked
 * recency lists (front = most recent). Node ids are stable until
 * released; a released id is reused by the next push. Links, keys
 * and segments live in parallel arrays, so a recency update touches
 * only 8-byte link records.
 */
class RowList
{
  public:
    static constexpr std::uint32_t kNoNode = RowIndex::kNoNode;
    static constexpr unsigned kMaxSegments = 2;

    /** New node for @p key at the front of segment @p seg. */
    std::uint32_t
    pushFront(std::uint64_t key, unsigned seg = 0)
    {
        std::uint32_t n = _free;
        if (n != kNoNode) {
            _free = _links[n].next;
            _keys[n] = key;
        } else {
            n = static_cast<std::uint32_t>(_links.size());
            _links.emplace_back();
            _keys.push_back(key);
            _segs.push_back(0);
        }
        link(n, seg);
        return n;
    }

    /** Move @p node to the front of segment @p seg (any segment). */
    void
    moveToFront(std::uint32_t node, unsigned seg = 0)
    {
        if (_segs[node] == seg && _ends[seg].head == node)
            return;
        unlink(node);
        link(node, seg);
    }

    /** Least-recent node of segment @p seg, or kNoNode if empty. */
    std::uint32_t back(unsigned seg = 0) const
    {
        return _ends[seg].tail;
    }

    /** Unlink @p node, recycle its id and return its key. */
    std::uint64_t
    release(std::uint32_t node)
    {
        unlink(node);
        _links[node].next = _free;
        _free = node;
        return _keys[node];
    }

    unsigned segment(std::uint32_t node) const { return _segs[node]; }
    std::size_t size(unsigned seg = 0) const
    {
        return _ends[seg].count;
    }

    /** Drop every node and release the pool. */
    void
    clear()
    {
        std::vector<Links>().swap(_links);
        std::vector<std::uint64_t>().swap(_keys);
        std::vector<std::uint8_t>().swap(_segs);
        _free = kNoNode;
        for (Ends &e : _ends)
            e = Ends{};
    }

  private:
    struct Links
    {
        std::uint32_t prev = kNoNode;
        std::uint32_t next = kNoNode;
    };

    struct Ends
    {
        std::uint32_t head = kNoNode;
        std::uint32_t tail = kNoNode;
        std::size_t count = 0;
    };

    void
    link(std::uint32_t n, unsigned seg)
    {
        Ends &e = _ends[seg];
        _segs[n] = static_cast<std::uint8_t>(seg);
        _links[n] = Links{kNoNode, e.head};
        if (e.head != kNoNode)
            _links[e.head].prev = n;
        else
            e.tail = n;
        e.head = n;
        ++e.count;
    }

    void
    unlink(std::uint32_t n)
    {
        const Links l = _links[n];
        Ends &e = _ends[_segs[n]];
        if (l.prev != kNoNode)
            _links[l.prev].next = l.next;
        else
            e.head = l.next;
        if (l.next != kNoNode)
            _links[l.next].prev = l.prev;
        else
            e.tail = l.prev;
        --e.count;
    }

    std::vector<Links> _links;
    std::vector<std::uint64_t> _keys;
    std::vector<std::uint8_t> _segs;
    std::uint32_t _free = kNoNode;
    Ends _ends[kMaxSegments];
};

/** Keyed single-segment LRU: a RowIndex over a RowList. */
class RowLru
{
  public:
    bool contains(std::uint64_t key) const
    {
        return _index.find(key) != RowIndex::kNoNode;
    }

    /** If @p key is resident, make it most recent and return true. */
    bool
    touchIfResident(std::uint64_t key)
    {
        const std::uint32_t n = _index.find(key);
        if (n == RowIndex::kNoNode)
            return false;
        _list.moveToFront(n);
        return true;
    }

    /** Insert an absent @p key as most recent. */
    void
    insert(std::uint64_t key)
    {
        _index.insert(key, _list.pushFront(key));
    }

    /** Remove @p key if resident; returns whether it was. */
    bool
    erase(std::uint64_t key)
    {
        const std::uint32_t n = _index.erase(key);
        if (n == RowIndex::kNoNode)
            return false;
        _list.release(n);
        return true;
    }

    /** Remove and return the least-recent key (size() > 0). */
    std::uint64_t
    evict()
    {
        const std::uint64_t victim = _list.release(_list.back());
        _index.erase(victim);
        return victim;
    }

    std::size_t size() const { return _index.size(); }

    void
    clear()
    {
        _index.clear();
        _list.clear();
    }

  private:
    RowIndex _index;
    RowList _list;
};

} // namespace centaur

#endif // CENTAUR_CACHETIER_ROW_INDEX_HH
