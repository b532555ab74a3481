#include "interconnect/iommu.hh"

namespace centaur {

Iommu::Iommu(const IommuConfig &cfg)
    : _cfg(cfg), _hitLatency(ticksFromNs(cfg.hitLatencyNs)),
      _walkLatency(ticksFromNs(cfg.walkLatencyNs))
{
}

TranslationResult
Iommu::translate(Addr virt)
{
    const std::uint64_t page = virt / _cfg.pageBytes;
    TranslationResult res;
    res.physical = virt; // identity map in the simulated space
    if (_tlb.touchIfResident(page)) {
        ++_hits;
        res.tlbHit = true;
        res.latency = _hitLatency;
    } else {
        ++_misses;
        res.tlbHit = false;
        res.latency = _hitLatency + _walkLatency;
        install(page);
    }
    return res;
}

void
Iommu::preload(Addr virt)
{
    const std::uint64_t page = virt / _cfg.pageBytes;
    if (!_tlb.contains(page))
        install(page);
}

void
Iommu::flush()
{
    _tlb.clear();
}

void
Iommu::install(std::uint64_t page)
{
    if (_tlb.size() >= _cfg.tlbEntries && _tlb.size() > 0)
        _tlb.evict();
    _tlb.insert(page);
}

} // namespace centaur
