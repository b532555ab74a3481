#include "cachetier/cache_tier.hh"

#include <algorithm>
#include <set>
#include <tuple>

#include "dlrm/workload.hh"
#include "sim/spec_number.hh"

namespace centaur {

namespace {

constexpr const char *kGrammar =
    "cache:<mb>[:<lru|lfu|slru>[:ghost]]";

bool
failWith(std::string *error, const std::string &part,
         const std::string &why)
{
    if (error)
        *error = "bad cache spec '" + part + "': " + why +
                 "; grammar: " + kGrammar;
    return false;
}

// ------------------------------------------------------------------
// Eviction policies.
// ------------------------------------------------------------------

/** Plain LRU: recency list (front = MRU) + key -> node map. */
class LruPolicy final : public RowCachePolicy
{
  public:
    bool
    contains(std::uint64_t key) const override
    {
        return _map.find(key) != _map.end();
    }

    void
    touch(std::uint64_t key) override
    {
        auto it = _map.find(key);
        _list.splice(_list.begin(), _list, it->second);
    }

    void
    insert(std::uint64_t key) override
    {
        _list.push_front(key);
        _map.emplace(key, _list.begin());
    }

    std::uint64_t
    evict() override
    {
        const std::uint64_t victim = _list.back();
        _map.erase(victim);
        _list.pop_back();
        return victim;
    }

    std::size_t size() const override { return _map.size(); }

    std::vector<std::uint64_t>
    keys() const override
    {
        std::vector<std::uint64_t> out;
        out.reserve(_map.size());
        for (const auto &kv : _map)
            out.push_back(kv.first);
        return out;
    }

  private:
    std::list<std::uint64_t> _list;
    std::map<std::uint64_t, std::list<std::uint64_t>::iterator> _map;
};

/**
 * LFU with FIFO tie-break: victims are the lowest-frequency keys,
 * oldest insertion first. The eviction order lives in an ordered
 * set of (freq, seq, key) tuples, so every choice is total-ordered
 * and deterministic.
 */
class LfuPolicy final : public RowCachePolicy
{
  public:
    bool
    contains(std::uint64_t key) const override
    {
        return _map.find(key) != _map.end();
    }

    void
    touch(std::uint64_t key) override
    {
        auto it = _map.find(key);
        _order.erase({it->second.freq, it->second.seq, key});
        ++it->second.freq;
        _order.insert({it->second.freq, it->second.seq, key});
    }

    void
    insert(std::uint64_t key) override
    {
        const Node node{1, ++_seq};
        _map.emplace(key, node);
        _order.insert({node.freq, node.seq, key});
    }

    std::uint64_t
    evict() override
    {
        const auto victim = *_order.begin();
        _order.erase(_order.begin());
        _map.erase(std::get<2>(victim));
        return std::get<2>(victim);
    }

    std::size_t size() const override { return _map.size(); }

    std::vector<std::uint64_t>
    keys() const override
    {
        std::vector<std::uint64_t> out;
        out.reserve(_map.size());
        for (const auto &kv : _map)
            out.push_back(kv.first);
        return out;
    }

  private:
    struct Node
    {
        std::uint64_t freq;
        std::uint64_t seq;
    };

    std::map<std::uint64_t, Node> _map;
    std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>
        _order;
    std::uint64_t _seq = 0;
};

/**
 * Segmented LRU: new rows enter a probation segment; a hit promotes
 * into a protected segment capped at 4/5 of the resident entries,
 * demoting the protected LRU back to probation MRU when full.
 * Victims come from the probation tail (protected tail only when
 * probation is empty), so scan traffic cannot flush proven-hot rows.
 */
class SlruPolicy final : public RowCachePolicy
{
  public:
    bool
    contains(std::uint64_t key) const override
    {
        return _map.find(key) != _map.end();
    }

    void
    touch(std::uint64_t key) override
    {
        auto it = _map.find(key);
        if (it->second.protectedSeg) {
            _protected.splice(_protected.begin(), _protected,
                              it->second.node);
            return;
        }
        // Promote probation -> protected.
        _protected.splice(_protected.begin(), _probation,
                          it->second.node);
        it->second.protectedSeg = true;
        const std::size_t cap =
            std::max<std::size_t>(1, size() * 4 / 5);
        if (_protected.size() > cap) {
            // Demote the protected LRU back to probation MRU.
            auto demoted = std::prev(_protected.end());
            _probation.splice(_probation.begin(), _protected,
                              demoted);
            _map.find(*demoted)->second.protectedSeg = false;
        }
    }

    void
    insert(std::uint64_t key) override
    {
        _probation.push_front(key);
        _map.emplace(key, Node{_probation.begin(), false});
    }

    std::uint64_t
    evict() override
    {
        std::list<std::uint64_t> &seg =
            _probation.empty() ? _protected : _probation;
        const std::uint64_t victim = seg.back();
        _map.erase(victim);
        seg.pop_back();
        return victim;
    }

    std::size_t size() const override { return _map.size(); }

    std::vector<std::uint64_t>
    keys() const override
    {
        std::vector<std::uint64_t> out;
        out.reserve(_map.size());
        for (const auto &kv : _map)
            out.push_back(kv.first);
        return out;
    }

  private:
    struct Node
    {
        std::list<std::uint64_t>::iterator node;
        bool protectedSeg;
    };

    std::list<std::uint64_t> _probation;
    std::list<std::uint64_t> _protected;
    std::map<std::uint64_t, Node> _map;
};

std::unique_ptr<RowCachePolicy>
makePolicy(CachePolicy p)
{
    switch (p) {
    case CachePolicy::Lfu:
        return std::make_unique<LfuPolicy>();
    case CachePolicy::Slru:
        return std::make_unique<SlruPolicy>();
    case CachePolicy::Lru:
    default:
        return std::make_unique<LruPolicy>();
    }
}

} // namespace

const char *
cachePolicyName(CachePolicy p)
{
    switch (p) {
    case CachePolicy::Lfu:
        return "lfu";
    case CachePolicy::Slru:
        return "slru";
    case CachePolicy::Lru:
    default:
        return "lru";
    }
}

const char *
cacheTierGrammar()
{
    return kGrammar;
}

std::vector<std::string>
exampleCacheParts()
{
    return {
        "cache:64",
        "cache:16:lfu",
        "cache:32:slru:ghost",
    };
}

bool
tryParseCachePart(const std::string &part, CacheTierConfig *out,
                  std::string *error)
{
    static const std::string prefix = "cache:";
    if (part.compare(0, prefix.size(), prefix) != 0)
        return failWith(error, part, "expected 'cache:' prefix");

    // Split the payload on ':' into at most three tokens.
    std::vector<std::string> tokens;
    std::size_t pos = prefix.size();
    while (pos <= part.size()) {
        const std::size_t next = part.find(':', pos);
        if (next == std::string::npos) {
            tokens.push_back(part.substr(pos));
            break;
        }
        tokens.push_back(part.substr(pos, next - pos));
        pos = next + 1;
    }
    if (tokens.empty() || tokens[0].empty())
        return failWith(error, part, "missing <mb> budget");
    if (tokens.size() > 3)
        return failWith(error, part,
                        "too many ':' fields (at most "
                        "<mb>:<policy>:ghost)");

    CacheTierConfig cfg;
    double mb = 0.0;
    if (!parseSpecNumber(tokens[0], &mb) || mb < 0.0)
        return failWith(error, part,
                        "bad <mb> budget '" + tokens[0] +
                            "' (non-negative number)");
    cfg.capacityMB = mb;

    if (tokens.size() >= 2) {
        const std::string &policy = tokens[1];
        if (policy == "lru")
            cfg.policy = CachePolicy::Lru;
        else if (policy == "lfu")
            cfg.policy = CachePolicy::Lfu;
        else if (policy == "slru")
            cfg.policy = CachePolicy::Slru;
        else
            return failWith(error, part,
                            "unknown policy '" + policy +
                                "' (lru | lfu | slru)");
    }
    if (tokens.size() == 3) {
        if (tokens[2] != "ghost")
            return failWith(error, part,
                            "unknown admission token '" + tokens[2] +
                                "' (ghost)");
        cfg.ghost = true;
    }

    // A zero budget is "no tier": normalize to the disabled default
    // so cache:0 specs stay byte-identical to their no-cache twins.
    if (out)
        *out = cfg.enabled() ? cfg : CacheTierConfig{};
    return true;
}

std::string
cachePartName(const CacheTierConfig &cfg)
{
    if (!cfg.enabled())
        return "";
    std::string name = "cache:" + formatSpecNumber(cfg.capacityMB);
    if (cfg.policy != CachePolicy::Lru || cfg.ghost)
        name += std::string(":") + cachePolicyName(cfg.policy);
    if (cfg.ghost)
        name += ":ghost";
    return name;
}

CacheStats &
CacheStats::operator+=(const CacheStats &o)
{
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    rejectedFills += o.rejectedFills;
    bytesResident += o.bytesResident;
    fabricSavedUs += o.fabricSavedUs;
    return *this;
}

// ------------------------------------------------------------------
// CacheTier.
// ------------------------------------------------------------------

CacheTier::CacheTier(const CacheTierConfig &cfg,
                     std::uint32_t row_bytes)
    : _cfg(cfg), _rowBytes(std::max<std::uint32_t>(1, row_bytes)),
      _maxRows(static_cast<std::uint64_t>(
                   cfg.capacityMB *
                   static_cast<double>(kMiB)) /
               _rowBytes),
      _policy(makePolicy(cfg.policy)), _ghostCap(_maxRows)
{
}

CacheTier::~CacheTier() = default;

bool
CacheTier::admit(std::uint64_t key)
{
    if (!_cfg.ghost)
        return true;
    auto it = _ghostMap.find(key);
    if (it != _ghostMap.end()) {
        // Second touch inside the ghost window: admit for real.
        _ghostList.erase(it->second);
        _ghostMap.erase(it);
        return true;
    }
    ghostInsert(key);
    ++_rejectedFills;
    return false;
}

void
CacheTier::ghostInsert(std::uint64_t key)
{
    if (_ghostCap == 0)
        return;
    auto it = _ghostMap.find(key);
    if (it != _ghostMap.end()) {
        _ghostList.splice(_ghostList.begin(), _ghostList,
                          it->second);
        return;
    }
    _ghostList.push_front(key);
    _ghostMap.emplace(key, _ghostList.begin());
    if (_ghostMap.size() > _ghostCap) {
        _ghostMap.erase(_ghostList.back());
        _ghostList.pop_back();
    }
}

CacheTier::Access
CacheTier::annotate(const InferenceBatch &batch)
{
    Access acc;
    batch.cacheHit.assign(batch.indices.size(), {});
    if (_maxRows == 0) {
        // Enabled-but-smaller-than-one-row budgets behave as a
        // pass-through: every lookup misses, nothing fills.
        for (std::size_t t = 0; t < batch.indices.size(); ++t) {
            batch.cacheHit[t].assign(batch.indices[t].size(), 0);
            acc.misses += batch.indices[t].size();
        }
        _misses += acc.misses;
        return acc;
    }
    for (std::size_t t = 0; t < batch.indices.size(); ++t) {
        const std::vector<std::uint64_t> &rows = batch.indices[t];
        std::vector<std::uint8_t> &mask = batch.cacheHit[t];
        mask.assign(rows.size(), 0);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(t) << 32) |
                (rows[i] & 0xffffffffULL);
            if (_policy->contains(key)) {
                _policy->touch(key);
                mask[i] = 1;
                ++acc.hits;
                continue;
            }
            ++acc.misses;
            if (!admit(key))
                continue;
            while (_policy->size() >= _maxRows) {
                const std::uint64_t victim = _policy->evict();
                ++_evictions;
                if (_cfg.ghost)
                    ghostInsert(victim);
            }
            _policy->insert(key);
        }
    }
    _hits += acc.hits;
    _misses += acc.misses;
    acc.hitBytes = acc.hits * _rowBytes;
    return acc;
}

CacheStats
CacheTier::stats() const
{
    CacheStats s;
    s.hits = _hits;
    s.misses = _misses;
    s.evictions = _evictions;
    s.rejectedFills = _rejectedFills;
    s.bytesResident = _policy->size() * _rowBytes;
    s.fabricSavedUs = usFromTicks(_savedTicks);
    return s;
}

std::vector<std::uint64_t>
CacheTier::residentKeys() const
{
    std::vector<std::uint64_t> keys = _policy->keys();
    std::sort(keys.begin(), keys.end());
    return keys;
}

void
CacheTier::reset()
{
    _policy = makePolicy(_cfg.policy);
    _ghostList.clear();
    _ghostMap.clear();
    _hits = _misses = _evictions = _rejectedFills = 0;
    _savedTicks = 0;
}

} // namespace centaur
