/**
 * @file
 * Flat row index and recency lists (cachetier/row_index.hh): keys
 * that share one home slot stay reachable when one is erased from
 * the middle of their probe run (including a run that wraps past the
 * last slot), the table doubles at half load and finds every key
 * across several doublings, erase-then-reinsert maps the key afresh,
 * `~0` and `0` are ordinary keys, and the lists keep recency order
 * while recycling released nodes. A long random insert/erase stream
 * is checked against std::map.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "cachetier/row_index.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

constexpr std::uint32_t kNone = RowIndex::kNoNode;

/** The first @p n keys from @p start upwards whose home is @p slot. */
std::vector<std::uint64_t>
keysHomedAt(const RowIndex &index, std::size_t slot, std::size_t n,
            std::uint64_t start = 1000)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = start; out.size() < n; ++k)
        if (index.homeSlot(k) == slot)
            out.push_back(k);
    return out;
}

TEST(RowIndex, EmptyIndexFindsNothing)
{
    RowIndex index;
    EXPECT_EQ(index.find(0), kNone);
    EXPECT_EQ(index.find(~0ULL), kNone);
    EXPECT_EQ(index.erase(7), kNone);
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.slotCount(), 0u);
    EXPECT_TRUE(index.keys().empty());
}

TEST(RowIndex, EraseFromTheMiddleOfOneProbeRun)
{
    RowIndex index;
    index.insert(1, 0); // allocate the first 16 slots
    ASSERT_EQ(index.slotCount(), 16u);
    index.erase(1);

    // Five keys with one home: a probe run of five slots. Erase from
    // its middle; the later keys must shift back, not vanish.
    const std::vector<std::uint64_t> keys = keysHomedAt(index, 5, 5);
    for (std::uint32_t i = 0; i < keys.size(); ++i)
        index.insert(keys[i], i);
    EXPECT_EQ(index.slotCount(), 16u);

    EXPECT_EQ(index.erase(keys[2]), 2u);
    EXPECT_EQ(index.find(keys[2]), kNone);
    EXPECT_EQ(index.erase(keys[2]), kNone);
    for (std::uint32_t i : {0u, 1u, 3u, 4u})
        EXPECT_EQ(index.find(keys[i]), i) << i;
    EXPECT_EQ(index.size(), 4u);

    // And from the front of the run.
    EXPECT_EQ(index.erase(keys[0]), 0u);
    for (std::uint32_t i : {1u, 3u, 4u})
        EXPECT_EQ(index.find(keys[i]), i) << i;
}

TEST(RowIndex, ProbeRunWrapsPastTheLastSlot)
{
    RowIndex index;
    index.insert(1, 0);
    index.erase(1);
    // Three keys homed at the last slot spill into slots 0 and 1; a
    // key homed at slot 0 then lands behind them. Erasing the
    // wrapped run's head must pull every key back into reach.
    const std::vector<std::uint64_t> last = keysHomedAt(index, 15, 3);
    const std::uint64_t first = keysHomedAt(index, 0, 1)[0];
    for (std::uint32_t i = 0; i < last.size(); ++i)
        index.insert(last[i], i);
    index.insert(first, 10);

    EXPECT_EQ(index.erase(last[0]), 0u);
    EXPECT_EQ(index.find(last[1]), 1u);
    EXPECT_EQ(index.find(last[2]), 2u);
    EXPECT_EQ(index.find(first), 10u);
    EXPECT_EQ(index.erase(last[1]), 1u);
    EXPECT_EQ(index.find(last[2]), 2u);
    EXPECT_EQ(index.find(first), 10u);
}

TEST(RowIndex, GrowsAtHalfLoadAcrossSeveralDoublings)
{
    RowIndex index;
    std::size_t doublings = 0;
    std::size_t slots = 0;
    for (std::uint32_t i = 0; i < 5000; ++i) {
        // Table-major keys, as the tier builds them.
        index.insert((std::uint64_t{i % 4} << 32) | (i * 7919u), i);
        if (index.slotCount() != slots) {
            ++doublings;
            slots = index.slotCount();
        }
        ASSERT_GE(slots, 2 * index.size());
        ASSERT_EQ(slots & (slots - 1), 0u);
    }
    EXPECT_GE(doublings, 8u);
    EXPECT_EQ(index.slotCount(), 16384u);
    for (std::uint32_t i = 0; i < 5000; ++i)
        ASSERT_EQ(index.find((std::uint64_t{i % 4} << 32) |
                             (i * 7919u)),
                  i);
    EXPECT_EQ(index.keys().size(), 5000u);
}

TEST(RowIndex, EraseThenReinsertMapsTheNewNode)
{
    RowIndex index;
    index.insert(42, 1);
    EXPECT_EQ(index.erase(42), 1u);
    index.insert(42, 9);
    EXPECT_EQ(index.find(42), 9u);
    EXPECT_EQ(index.size(), 1u);

    // A long erase/insert churn at constant occupancy leaves no
    // tombstones behind: the table never grows past its first size.
    for (std::uint64_t k = 100; k < 10100; ++k) {
        index.insert(k, static_cast<std::uint32_t>(k));
        EXPECT_EQ(index.erase(k), k);
    }
    EXPECT_EQ(index.slotCount(), 16u);
    EXPECT_EQ(index.find(42), 9u);
}

TEST(RowIndex, AllOnesAndZeroAreOrdinaryKeys)
{
    RowIndex index;
    index.insert(~0ULL, 3);
    index.insert(0, 4);
    EXPECT_EQ(index.find(~0ULL), 3u);
    EXPECT_EQ(index.find(0), 4u);
    EXPECT_EQ(index.keys(), (std::vector<std::uint64_t>{0, ~0ULL}));
    EXPECT_EQ(index.erase(~0ULL), 3u);
    EXPECT_EQ(index.find(~0ULL), kNone);
    EXPECT_EQ(index.find(0), 4u);
}

TEST(RowIndex, RandomStreamMatchesAnOrderedMap)
{
    RowIndex index;
    std::map<std::uint64_t, std::uint32_t> oracle;
    Rng rng(5);
    for (std::uint32_t step = 0; step < 200000; ++step) {
        const std::uint64_t key = rng.nextBelow(3000);
        const auto it = oracle.find(key);
        ASSERT_EQ(index.find(key),
                  it == oracle.end() ? kNone : it->second);
        if (it == oracle.end()) {
            index.insert(key, step);
            oracle.emplace(key, step);
        } else if (rng.nextBelow(2) == 0) {
            ASSERT_EQ(index.erase(key), it->second);
            oracle.erase(it);
        }
    }
    std::vector<std::uint64_t> keys;
    for (const auto &kv : oracle)
        keys.push_back(kv.first);
    EXPECT_EQ(index.keys(), keys);
    EXPECT_EQ(index.size(), oracle.size());
}

TEST(RowList, SegmentsKeepRecencyAndRecycleNodes)
{
    RowList list;
    const std::uint32_t a = list.pushFront(10);
    const std::uint32_t b = list.pushFront(20);
    const std::uint32_t c = list.pushFront(30, 1);
    EXPECT_EQ(list.back(0), a);
    EXPECT_EQ(list.back(1), c);
    EXPECT_EQ(list.size(0), 2u);

    list.moveToFront(a); // a is now the most recent of segment 0
    EXPECT_EQ(list.back(0), b);
    list.moveToFront(b, 1); // b moves over to segment 1
    EXPECT_EQ(list.segment(b), 1u);
    EXPECT_EQ(list.size(0), 1u);
    EXPECT_EQ(list.size(1), 2u);
    EXPECT_EQ(list.back(1), c);

    EXPECT_EQ(list.release(c), 30u);
    EXPECT_EQ(list.back(1), b);
    // The released id is the next one handed out.
    EXPECT_EQ(list.pushFront(40), c);
    EXPECT_EQ(list.back(0), a);
    EXPECT_EQ(list.release(a), 10u);
    EXPECT_EQ(list.release(c), 40u);
    EXPECT_EQ(list.back(0), kNone);
}

TEST(RowLru, EvictsLeastRecentAndErasesByKey)
{
    RowLru lru;
    for (std::uint64_t k : {1, 2, 3})
        lru.insert(k);
    EXPECT_TRUE(lru.touchIfResident(1)); // order, MRU first: 1 3 2
    EXPECT_FALSE(lru.touchIfResident(4));
    EXPECT_EQ(lru.evict(), 2u);
    EXPECT_TRUE(lru.erase(3));
    EXPECT_FALSE(lru.erase(3));
    EXPECT_FALSE(lru.contains(3));
    EXPECT_EQ(lru.size(), 1u);
    EXPECT_EQ(lru.evict(), 1u);
    EXPECT_EQ(lru.size(), 0u);

    lru.insert(5);
    lru.clear();
    EXPECT_FALSE(lru.contains(5));
    lru.insert(6);
    EXPECT_EQ(lru.evict(), 6u);
}

} // namespace
} // namespace centaur
