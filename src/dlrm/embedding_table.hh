/**
 * @file
 * Virtual embedding tables.
 *
 * Production tables reach hundreds of GB; allocating them would be
 * wasteful and unnecessary. A VirtualEmbeddingTable synthesizes the
 * value of any (row, dim) element deterministically from a hash, so
 * all design points see identical "weights" with zero storage, while
 * the timing models operate on the table's true address footprint.
 */

#ifndef CENTAUR_DLRM_EMBEDDING_TABLE_HH
#define CENTAUR_DLRM_EMBEDDING_TABLE_HH

#include <cstdint>
#include <vector>

#include "sim/units.hh"

namespace centaur {

/** Deterministic value synthesis shared by tables and MLP params. */
namespace paramgen {

/** SplitMix64 hash. */
std::uint64_t hash(std::uint64_t x);

/**
 * Hash prefix of a (domain, a, b) tuple. A caller synthesizing many
 * values that share (domain, a, b) - a table row, an MLP weight row -
 * hashes the prefix once and pays one round per value in
 * finishFloat().
 */
std::uint64_t hashPrefix(std::uint64_t domain, std::uint64_t a,
                         std::uint64_t b);

/** Finish @p prefix with @p c to a float in [-scale, scale]. */
float finishFloat(std::uint64_t prefix, std::uint64_t c, float scale);

/**
 * Hash of a (domain, a, b, c) tuple to a float in [-scale, scale]:
 * finishFloat(hashPrefix(domain, a, b), c, scale).
 */
float hashedFloat(std::uint64_t domain, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c, float scale);

} // namespace paramgen

/**
 * One embedding table with a base address inside the simulated CPU
 * physical memory and hash-synthesized contents.
 */
class VirtualEmbeddingTable
{
  public:
    /**
     * @param table_id stable identity (drives value synthesis)
     * @param rows number of embedding vectors
     * @param dim floats per vector
     * @param base base physical address of row 0
     */
    VirtualEmbeddingTable(std::uint32_t table_id, std::uint64_t rows,
                          std::uint32_t dim, Addr base);

    /** Value of element @p d of row @p row. */
    float element(std::uint64_t row, std::uint32_t d) const;

    /** Materialize a whole row. */
    void row(std::uint64_t row, float *out) const;

    /** Add a whole row into @p out (dim() floats), element by element. */
    void accumulateRow(std::uint64_t row, float *out) const;

    /** Physical address of the first byte of @p row. */
    Addr
    rowAddr(std::uint64_t row) const
    {
        return _base + row * rowBytes();
    }

    std::uint64_t rowBytes() const
    {
        return static_cast<std::uint64_t>(_dim) * 4;
    }

    std::uint32_t id() const { return _id; }
    std::uint64_t rows() const { return _rows; }
    std::uint32_t dim() const { return _dim; }
    Addr base() const { return _base; }
    std::uint64_t sizeBytes() const { return _rows * rowBytes(); }

  private:
    /** Bound-check @p row and return its hash prefix. */
    std::uint64_t rowPrefix(std::uint64_t row) const;

    std::uint32_t _id;
    std::uint64_t _rows;
    std::uint32_t _dim;
    Addr _base;
};

/**
 * Flat layout of every model data structure in the simulated shared
 * physical memory: sparse index arrays, embedding tables, MLP
 * weights, dense features and outputs. Mirrors the base-pointer set
 * the CPU hands to Centaur's BPregs over MMIO (Section IV-C).
 */
struct MemoryLayout
{
    Addr indexArrayBase = 0;
    Addr denseFeatureBase = 0;
    Addr mlpWeightBase = 0;
    Addr outputBase = 0;
    std::vector<Addr> tableBases;

    /**
     * Lay out a model's structures on 4 KB boundaries starting at
     * @p origin.
     */
    static MemoryLayout buildFor(std::uint32_t num_tables,
                                 std::uint64_t table_bytes,
                                 Addr origin = 0x10000000);
};

} // namespace centaur

#endif // CENTAUR_DLRM_EMBEDDING_TABLE_HH
