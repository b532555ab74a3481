#include "cpu/gather_engine.hh"

#include <algorithm>
#include <vector>

#include "sim/log.hh"
#include "sim/tick_window.hh"

namespace centaur {

namespace {

/** Per-thread execution state while sweeping one table's lookups. */
struct ThreadCursor
{
    explicit ThreadCursor(std::uint32_t window) : pending(window) {}

    Tick now = 0;
    TickWindow pending;       //!< outstanding miss completions
    std::uint32_t sample = 0; //!< next sample to process
    std::uint32_t sampleEnd = 0;
    std::uint32_t lookup = 0; //!< next lookup within sample

    bool done() const { return sample >= sampleEnd; }
};

} // namespace

GatherEngine::GatherEngine(const CpuConfig &cfg,
                           CacheHierarchy &hierarchy, DramModel &dram)
    : _cfg(cfg), _hier(hierarchy), _dram(dram)
{
}

GatherResult
GatherEngine::run(const ReferenceModel &model,
                  const InferenceBatch &batch, Tick start)
{
    const DlrmConfig &cfg = model.config();
    const MemoryLayout &layout = model.layout();
    const std::uint64_t vec_bytes = cfg.vectorBytes();
    const std::uint32_t lines_per_vec = static_cast<std::uint32_t>(
        (vec_bytes + _hier.lineBytes() - 1) / _hier.lineBytes());

    const std::uint64_t llc_acc0 = _hier.llc().accesses();
    const std::uint64_t llc_miss0 = _hier.llc().misses();

    const double instr_per_sec = _cfg.ipc * _cfg.freqGHz * 1e9;
    const Tick lookup_instr_ticks = static_cast<Tick>(
        static_cast<double>(_cfg.instrPerLookup + _cfg.instrPerIndex) /
        instr_per_sec * kTicksPerSec);
    const Tick store_ticks = static_cast<Tick>(
        static_cast<double>(cfg.embeddingDim) / 8.0 / instr_per_sec *
        kTicksPerSec);
    const Tick dispatch = ticksFromUs(_cfg.dispatchUs);
    const Tick fork_join = ticksFromUs(_cfg.ompForkJoinUs);

    GatherResult res;
    res.start = start;
    res.lookups = batch.totalLookups();
    // Lookups resident in the hot-row cache tier (batch.cacheHit,
    // annotated before the backend runs) never touch the memory
    // system: their bytes drop out of the DRAM-side total.
    res.cachedLookups = batch.cachedLookups();
    res.bytesGathered =
        (res.lookups - res.cachedLookups) * vec_bytes;

    // PyTorch's EmbeddingBag runs tables as sequential operators and
    // parallelizes each over the batch dimension (at::parallel_for),
    // so thread-level parallelism scales with batch size - a central
    // reason small-batch inference underuses memory bandwidth
    // (Section III-C).
    const std::uint32_t threads =
        std::max<std::uint32_t>(1, std::min(_cfg.cores, batch.batch));
    res.threadsUsed = threads;
    const std::uint32_t chunk = (batch.batch + threads - 1) / threads;

    // One cursor per thread, reset per table: their miss windows
    // allocate here, once per run.
    std::vector<ThreadCursor> cursor(threads,
                                     ThreadCursor(_cfg.gatherWindowLines));

    Tick table_start = start;
    std::uint64_t lookup_seq = 0;
    for (std::uint32_t t = 0; t < cfg.numTables; ++t) {
        // Operator dispatch plus (when multithreaded) pool wakeup.
        table_start += dispatch;
        if (threads > 1)
            table_start += fork_join;

        const auto &indices = batch.indices[t];
        const VirtualEmbeddingTable &table = model.table(t);

        // Flattened per-table invariants: the loop below runs once
        // per lookup, so the cache-tier hit mask (batch.rowCached
        // re-runs three bounds checks per call), the index-stream
        // base and the per-sample lookup count are hoisted here.
        const std::uint8_t *hit_mask =
            t < batch.cacheHit.size() ? batch.cacheHit[t].data()
                                      : nullptr;
        const std::size_t hit_mask_size =
            t < batch.cacheHit.size() ? batch.cacheHit[t].size() : 0;
        const Addr idx_base = layout.indexArrayBase + lookup_seq * 4;
        const std::uint32_t lookups_per_table = batch.lookupsPerTable;

        // Host-only: start loading the model's set blocks for the
        // row of lookup @p flat, unless the cache tier serves it. The
        // gather's global order is only known one access at a time
        // (the cursor furthest behind goes next), but each cursor's
        // own rows are contiguous in `indices`, so every cursor
        // prefetches kSetPrefetchDistance lookups ahead of itself.
        const auto prefetch_row = [&](std::size_t flat) {
            if (hit_mask && flat < hit_mask_size && hit_mask[flat])
                return;
            const Addr row_addr = table.rowAddr(indices[flat]);
            for (std::uint32_t l = 0; l < lines_per_vec; ++l)
                _hier.prefetch(row_addr +
                               static_cast<Addr>(l) * _hier.lineBytes());
        };

        for (std::uint32_t th = 0; th < threads; ++th) {
            ThreadCursor &c = cursor[th];
            c.now = table_start;
            c.pending.clear();
            c.sample = std::min(th * chunk, batch.batch);
            c.sampleEnd = std::min((th + 1) * chunk, batch.batch);
            c.lookup = 0;
            const std::size_t first =
                static_cast<std::size_t>(c.sample) * lookups_per_table;
            const std::size_t end =
                static_cast<std::size_t>(c.sampleEnd) * lookups_per_table;
            for (std::size_t f = first;
                 f < std::min(end, first + kSetPrefetchDistance); ++f)
                prefetch_row(f);
        }

        // Process one lookup at a time on whichever thread's clock
        // is furthest behind: keeps the shared DRAM model's issue
        // stream in near-global time order so concurrent threads
        // contend realistically instead of serializing.
        for (;;) {
            ThreadCursor *tc = nullptr;
            for (auto &c : cursor)
                if (!c.done() && (!tc || c.now < tc->now))
                    tc = &c;
            if (!tc)
                break;

            const std::uint32_t b = tc->sample;
            const std::uint32_t j = tc->lookup;
            const std::size_t flat =
                static_cast<std::size_t>(b) * lookups_per_table + j;
            const std::size_t ahead = flat + kSetPrefetchDistance;
            if (ahead < static_cast<std::size_t>(tc->sampleEnd) *
                            lookups_per_table)
                prefetch_row(ahead);

            // Sparse-index fetch: a perfectly sequential 4 B stream.
            // The L2 stream prefetcher hides the DRAM round trip, so
            // cold lines cost DRAM bandwidth but only L2-ish latency
            // on the demand path.
            const Addr idx_addr =
                idx_base + static_cast<Addr>(flat) * 4;
            const auto idx_res = _hier.access(idx_addr);
            if (idx_res.level == HitLevel::Memory) {
                _dram.access(idx_addr, tc->now + idx_res.latency);
                tc->now += _hier.l2().hitLatency();
            }

            tc->now += lookup_instr_ticks;

            // A cache-tier hit skips the row's line fetches
            // entirely (the tier's own lookup cost is charged by
            // ComposedSystem); the index fetch and the per-lookup
            // instruction stream are still paid above.
            if (hit_mask && flat < hit_mask_size && hit_mask[flat]) {
                if (++tc->lookup == lookups_per_table) {
                    tc->lookup = 0;
                    ++tc->sample;
                    tc->now += store_ticks;
                }
                continue;
            }

            const std::uint64_t row = indices[flat];
            const Addr row_addr = table.rowAddr(row);
            for (std::uint32_t l = 0; l < lines_per_vec; ++l) {
                const Addr line = row_addr +
                                  static_cast<Addr>(l) *
                                      _hier.lineBytes();
                const auto acc = _hier.access(line);
                if (acc.level == HitLevel::Memory) {
                    if (tc->pending.full())
                        tc->now = std::max(tc->now, tc->pending.pop());
                    const Tick done =
                        _dram.access(line, tc->now + acc.latency)
                            .completion;
                    tc->pending.push(done);
                } else {
                    // Cache hits pipeline behind the OOO window;
                    // charge a quarter of the load-to-use latency.
                    tc->now += acc.latency / 4;
                }
            }

            // Advance the cursor; at the end of a sample, charge the
            // reduced-vector writeback stores.
            if (++tc->lookup == batch.lookupsPerTable) {
                tc->lookup = 0;
                ++tc->sample;
                tc->now += store_ticks;
            }
        }

        Tick table_end = table_start;
        for (const ThreadCursor &c : cursor)
            table_end = std::max(table_end, c.pending.latest(c.now));
        table_start = table_end;
        lookup_seq += indices.size();
    }

    res.end = table_start;
    res.instructions =
        res.lookups * (_cfg.instrPerLookup + _cfg.instrPerIndex) +
        static_cast<std::uint64_t>(cfg.numTables) *
            static_cast<std::uint64_t>(_cfg.dispatchUs *
                                       instr_per_sec / 1e6) +
        static_cast<std::uint64_t>(batch.batch) * cfg.numTables *
            cfg.embeddingDim / 8;
    res.llcAccesses = _hier.llc().accesses() - llc_acc0;
    res.llcMisses = _hier.llc().misses() - llc_miss0;
    return res;
}

} // namespace centaur
