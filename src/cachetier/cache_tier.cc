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

constexpr std::uint32_t kNoNode = RowIndex::kNoNode;

/** Plain LRU: one recency list (front = MRU) over the key index. */
class LruPolicy final : public RowCachePolicy
{
  public:
    bool
    touchIfResident(std::uint64_t key) override
    {
        const std::uint32_t n = _index.find(key);
        if (n == kNoNode)
            return false;
        _list.moveToFront(n);
        return true;
    }

    void
    insert(std::uint64_t key) override
    {
        _index.insert(key, _list.pushFront(key));
    }

    std::uint64_t
    evict() override
    {
        const std::uint64_t victim = _list.release(_list.back());
        _index.erase(victim);
        return victim;
    }

  private:
    RowList _list;
};

/**
 * LFU with FIFO tie-break: victims are the lowest-frequency keys,
 * oldest insertion first. The eviction order lives in an ordered
 * set of (freq, seq, key) tuples, so every choice is total-ordered
 * and deterministic; the index maps a key to its (freq, seq) node.
 */
class LfuPolicy final : public RowCachePolicy
{
  public:
    bool
    touchIfResident(std::uint64_t key) override
    {
        const std::uint32_t n = _index.find(key);
        if (n == kNoNode)
            return false;
        Node &node = _nodes[n];
        auto entry = _order.extract({node.freq, node.seq, key});
        entry.value() = {++node.freq, node.seq, key};
        _order.insert(std::move(entry));
        return true;
    }

    void
    insert(std::uint64_t key) override
    {
        std::uint32_t n;
        if (_free.empty()) {
            n = static_cast<std::uint32_t>(_nodes.size());
            _nodes.emplace_back();
        } else {
            n = _free.back();
            _free.pop_back();
        }
        _nodes[n] = Node{1, ++_seq};
        _index.insert(key, n);
        _order.insert({1, _seq, key});
    }

    std::uint64_t
    evict() override
    {
        const std::uint64_t victim = std::get<2>(*_order.begin());
        _order.erase(_order.begin());
        _free.push_back(_index.erase(victim));
        return victim;
    }

  private:
    struct Node
    {
        std::uint64_t freq;
        std::uint64_t seq;
    };

    std::vector<Node> _nodes;
    std::vector<std::uint32_t> _free;
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
 * Both segments are lists over one node pool.
 */
class SlruPolicy final : public RowCachePolicy
{
  public:
    bool
    touchIfResident(std::uint64_t key) override
    {
        const std::uint32_t n = _index.find(key);
        if (n == kNoNode)
            return false;
        if (_list.segment(n) == kProtected) {
            _list.moveToFront(n, kProtected);
            return true;
        }
        // Promote probation -> protected.
        _list.moveToFront(n, kProtected);
        const std::size_t cap =
            std::max<std::size_t>(1, size() * 4 / 5);
        if (_list.size(kProtected) > cap) {
            // Demote the protected LRU back to probation MRU.
            _list.moveToFront(_list.back(kProtected), kProbation);
        }
        return true;
    }

    void
    insert(std::uint64_t key) override
    {
        _index.insert(key, _list.pushFront(key, kProbation));
    }

    std::uint64_t
    evict() override
    {
        const unsigned seg =
            _list.size(kProbation) ? kProbation : kProtected;
        const std::uint64_t victim = _list.release(_list.back(seg));
        _index.erase(victim);
        return victim;
    }

  private:
    static constexpr unsigned kProbation = 0;
    static constexpr unsigned kProtected = 1;

    RowList _list;
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
    // Second touch inside the ghost window: admit for real.
    if (_ghost.erase(key))
        return true;
    ghostInsert(key);
    ++_rejectedFills;
    return false;
}

void
CacheTier::ghostInsert(std::uint64_t key)
{
    if (_ghostCap == 0 || _ghost.touchIfResident(key))
        return;
    _ghost.insert(key);
    if (_ghost.size() > _ghostCap)
        _ghost.evict();
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
            if (_policy->touchIfResident(key)) {
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
    return _policy->keys();
}

void
CacheTier::reset()
{
    _policy = makePolicy(_cfg.policy);
    _ghost.clear();
    _hits = _misses = _evictions = _rejectedFills = 0;
    _savedTicks = 0;
}

} // namespace centaur
