#include "fpga/eb_streamer.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/tick_window.hh"

namespace centaur {

EbStreamer::EbStreamer(const CentaurConfig &cfg,
                       ChannelAggregate &channel, Iommu &iommu,
                       Cache &cpu_llc, DramModel &dram)
    : _cfg(cfg), _channel(channel), _iommu(iommu), _llc(cpu_llc),
      _dram(dram), _cyclePs(periodFromHz(cfg.freqHz))
{
}

Tick
EbStreamer::serviceLine(Addr line, Tick arrive, bool *llc_hit)
{
    if (_cfg.bypassCpuCache) {
        // Fig 8's cache-bypassing route: straight to the memory
        // controller, no LLC lookup on the way.
        if (llc_hit)
            *llc_hit = false;
        return _dram
            .access(line, arrive + ticksFromNs(_cfg.memCtrlIssueNs))
            .completion;
    }
    // Coherent path: the read probes (and allocates into) the LLC.
    const bool hit = _llc.access(line).hit;
    if (llc_hit)
        *llc_hit = hit;
    if (hit)
        return arrive + ticksFromNs(_cfg.llcServiceNs);
    return _dram
        .access(line, arrive + ticksFromNs(_cfg.llcServiceNs +
                                           _cfg.memCtrlIssueNs))
        .completion;
}

StreamResult
EbStreamer::streamFromMemory(Addr base, std::uint64_t bytes, Tick start)
{
    StreamResult res;
    res.start = start;
    res.bytes = bytes;
    if (bytes == 0) {
        res.end = start;
        return res;
    }
    // Sequential reads pipelined line-by-line: issue a request per
    // 64 B line, service on the CPU side, stream responses back.
    Tick issue = start;
    Tick last = start;
    const Addr first_line = base / 64;
    const Addr last_line = (base + bytes - 1) / 64;
    for (Addr l = first_line; l <= last_line; ++l) {
        const Addr line_addr = l * 64;
        const auto trans = _iommu.translate(line_addr);
        const auto req =
            _channel.transfer(16, issue + trans.latency,
                              LinkDir::FpgaToCpu);
        const Tick served = serviceLine(trans.physical, req.lastByte,
                                        nullptr);
        const auto resp =
            _channel.transfer(64, served, LinkDir::CpuToFpga);
        last = std::max(last, resp.lastByte);
        issue += _cyclePs; // one request per FPGA cycle
    }
    res.end = last;
    return res;
}

EbGatherResult
EbStreamer::gather(const ReferenceModel &model,
                   const InferenceBatch &batch, Tick start)
{
    const DlrmConfig &cfg = model.config();
    const std::uint64_t vec_bytes = cfg.vectorBytes();
    const std::uint32_t lines_per_vec =
        static_cast<std::uint32_t>((vec_bytes + 63) / 64);

    EbGatherResult res;
    res.start = start;
    res.vectors = batch.totalLookups();
    // Rows resident in the hot-row cache tier never cross the
    // coherent channel: their bytes drop out of the streamed total.
    res.bytesGathered =
        (res.vectors - batch.cachedLookups()) * vec_bytes;

    // Credit-limited outstanding line reads (AFU tag space).
    const std::uint32_t credits = _channel.maxOutstandingLines();
    TickWindow outstanding(credits);

    Tick gu_time = start;  // EB-GU issue pointer
    Tick ru_free = start;  // EB-RU availability
    Tick last_done = start;

    for (std::uint32_t t = 0; t < cfg.numTables; ++t) {
        const auto &indices = batch.indices[t];
        const VirtualEmbeddingTable &table = model.table(t);
        // batch.rowCached hoisted: the tier's hit mask for this table,
        // empty when no tier annotated the batch.
        const std::uint8_t *hit_mask =
            t < batch.cacheHit.size() ? batch.cacheHit[t].data()
                                      : nullptr;
        const std::size_t hit_mask_size =
            t < batch.cacheHit.size() ? batch.cacheHit[t].size() : 0;
        const auto cached = [&](std::size_t i) {
            return hit_mask && i < hit_mask_size && hit_mask[i] != 0;
        };
        for (std::uint64_t i = 0; i < indices.size(); ++i) {
            // Host-only: on the coherent path, start loading the LLC
            // set blocks of the row kSetPrefetchDistance lookups
            // ahead. The IOMMU maps identity, so the row's virtual
            // address names its physical set.
            const std::size_t ahead = i + kSetPrefetchDistance;
            if (!_cfg.bypassCpuCache && ahead < indices.size() &&
                !cached(ahead)) {
                const Addr ahead_addr = table.rowAddr(indices[ahead]);
                for (std::uint32_t l = 0; l < lines_per_vec; ++l)
                    _llc.prefetchSet(ahead_addr +
                                     static_cast<Addr>(l) * 64);
            }

            // A cache-tier hit skips the IOMMU translate and the
            // line transfers entirely; the row still flows through
            // the reduce unit like any other vector.
            if (cached(i)) {
                gu_time += _cyclePs;
                const Cycles hit_ru_cycles =
                    (cfg.embeddingDim + _cfg.reduceLanes - 1) /
                    _cfg.reduceLanes;
                const Tick ru_done = std::max(gu_time, ru_free) +
                                     hit_ru_cycles * _cyclePs;
                ru_free = ru_done;
                last_done = std::max(last_done, ru_done);
                continue;
            }

            const Addr row_addr = table.rowAddr(indices[i]);
            const auto trans = _iommu.translate(row_addr);
            if (!trans.tlbHit)
                ++res.tlbMisses;

            Tick vec_arrival = 0;
            for (std::uint32_t l = 0; l < lines_per_vec; ++l) {
                // Stall the gather unit while the credit window is
                // full - the only backpressure mechanism needed.
                if (outstanding.full())
                    gu_time = std::max(gu_time, outstanding.pop());
                const Tick issue = gu_time + trans.latency;
                const auto req =
                    _channel.transfer(16, issue, LinkDir::FpgaToCpu);
                bool hit = false;
                const Tick served = serviceLine(
                    trans.physical + static_cast<Addr>(l) * 64,
                    req.lastByte, &hit);
                if (hit)
                    ++res.llcHits;
                const auto resp =
                    _channel.transfer(64, served, LinkDir::CpuToFpga);
                outstanding.push(resp.lastByte);
                vec_arrival = std::max(vec_arrival, resp.lastByte);
            }
            // One multi-CL gather request per FPGA cycle (CCI-P
            // supports up to 4-line requests, covering a vector).
            gu_time += _cyclePs;

            // EB-RU reduces the vector as it streams in: dim lanes
            // of element-wise adds, one vector per cycle batch.
            const Cycles ru_cycles =
                (cfg.embeddingDim + _cfg.reduceLanes - 1) /
                _cfg.reduceLanes;
            const Tick ru_done = std::max(vec_arrival, ru_free) +
                                 ru_cycles * _cyclePs;
            ru_free = ru_done;
            last_done = std::max(last_done, ru_done);
        }
    }

    // Drain any reads still in flight.
    res.end = outstanding.latest(last_done);
    return res;
}

StreamResult
EbStreamer::writeback(Addr base, std::uint64_t bytes, Tick start)
{
    StreamResult res;
    res.start = start;
    res.bytes = bytes;
    if (bytes == 0) {
        res.end = start;
        return res;
    }
    const auto trans = _iommu.translate(base);
    const auto xfer = _channel.transfer(bytes, start + trans.latency,
                                        LinkDir::FpgaToCpu);
    res.end = xfer.lastByte + ticksFromNs(_cfg.llcServiceNs);
    return res;
}

} // namespace centaur
