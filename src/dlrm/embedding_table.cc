#include "dlrm/embedding_table.hh"

#include "sim/log.hh"

namespace centaur {

namespace paramgen {

std::uint64_t
hash(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

std::uint64_t
hashPrefix(std::uint64_t domain, std::uint64_t a, std::uint64_t b)
{
    return hash(hash(hash(domain) ^ a) ^ b);
}

float
finishFloat(std::uint64_t prefix, std::uint64_t c, float scale)
{
    // Map the top 24 bits to [-1, 1), then scale.
    const auto bits = static_cast<std::uint32_t>(hash(prefix ^ c) >> 40);
    const float unit =
        static_cast<float>(bits) / 8388608.0f - 1.0f; // 2^23
    return unit * scale;
}

float
hashedFloat(std::uint64_t domain, std::uint64_t a, std::uint64_t b,
            std::uint64_t c, float scale)
{
    return finishFloat(hashPrefix(domain, a, b), c, scale);
}

} // namespace paramgen

VirtualEmbeddingTable::VirtualEmbeddingTable(std::uint32_t table_id,
                                             std::uint64_t rows,
                                             std::uint32_t dim,
                                             Addr base)
    : _id(table_id), _rows(rows), _dim(dim), _base(base)
{
    if (rows == 0 || dim == 0)
        fatal("embedding table needs nonzero rows and dim");
}

namespace {

constexpr std::uint64_t kTableDomain = 0xE3B0;
// Keeps reduced sums of ~100 vectors within sigmoid's useful dynamic
// range.
constexpr float kTableScale = 0.05f;

} // namespace

std::uint64_t
VirtualEmbeddingTable::rowPrefix(std::uint64_t row) const
{
    if (row >= _rows)
        panic("embedding row ", row, " out of range (table ", _id,
              " has ", _rows, " rows)");
    return paramgen::hashPrefix(kTableDomain, _id, row);
}

float
VirtualEmbeddingTable::element(std::uint64_t row, std::uint32_t d) const
{
    return paramgen::finishFloat(rowPrefix(row), d, kTableScale);
}

void
VirtualEmbeddingTable::row(std::uint64_t row_idx, float *out) const
{
    const std::uint64_t prefix = rowPrefix(row_idx);
    for (std::uint32_t d = 0; d < _dim; ++d)
        out[d] = paramgen::finishFloat(prefix, d, kTableScale);
}

void
VirtualEmbeddingTable::accumulateRow(std::uint64_t row_idx,
                                     float *out) const
{
    const std::uint64_t prefix = rowPrefix(row_idx);
    for (std::uint32_t d = 0; d < _dim; ++d)
        out[d] += paramgen::finishFloat(prefix, d, kTableScale);
}

MemoryLayout
MemoryLayout::buildFor(std::uint32_t num_tables,
                       std::uint64_t table_bytes, Addr origin)
{
    constexpr Addr kAlign = 4096;
    auto align = [](Addr a) { return (a + kAlign - 1) & ~(kAlign - 1); };

    MemoryLayout layout;
    Addr cursor = align(origin);
    layout.indexArrayBase = cursor;
    cursor = align(cursor + 16 * kMiB); // generous index region
    layout.denseFeatureBase = cursor;
    cursor = align(cursor + 16 * kMiB);
    layout.mlpWeightBase = cursor;
    cursor = align(cursor + 16 * kMiB);
    layout.outputBase = cursor;
    cursor = align(cursor + 16 * kMiB);
    layout.tableBases.reserve(num_tables);
    for (std::uint32_t t = 0; t < num_tables; ++t) {
        layout.tableBases.push_back(cursor);
        cursor = align(cursor + table_bytes);
    }
    return layout;
}

} // namespace centaur
