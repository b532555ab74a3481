/**
 * @file
 * ClusterTopology: N serving nodes, each owning its own Fabric and
 * worker fleet, bound to one shard map and one modeled network.
 *
 * Every node is built the way runServingSim builds its one fleet:
 * makeWorkers gives it the same fleet shape (ServingConfig::workers
 * homogeneous workers of the cluster spec's node spec, or one worker
 * per workerSpecs entry) on the node's private Fabric when
 * contention is on, and the cluster engine hands each node's workers
 * and fabric to one node scheduler (core/node_scheduler.hh). The
 * shard map partitions the model's embedding rows across the nodes
 * and the network prices every remote gather; both are owned here
 * so engine, router and tests see one consistent cluster.
 */

#ifndef CENTAUR_CLUSTER_TOPOLOGY_HH
#define CENTAUR_CLUSTER_TOPOLOGY_HH

#include <memory>
#include <vector>

#include "cluster/cluster_spec.hh"
#include "cluster/network.hh"
#include "cluster/shard_map.hh"
#include "core/fabric.hh"
#include "core/server.hh"
#include "core/system.hh"

namespace centaur {

/** One serving node: a private fabric plus its worker fleet. */
struct ClusterNode
{
    std::uint32_t id = 0;
    /** Node-private resource fabric; null when contention is off. */
    std::unique_ptr<Fabric> fabric;
    /**
     * Node-private hot-row cache tier shared by the node's workers
     * (cachetier/cache_tier.hh); null when the spec enables none.
     */
    std::unique_ptr<CacheTier> cache;
    std::vector<std::unique_ptr<System>> owned;
    /** Non-owning worker views, in owned order. */
    std::vector<System *> workers;
};

/** The cluster: nodes + shard map + network. */
class ClusterTopology
{
  public:
    /**
     * Build @p spec.nodes identical nodes for @p model. @p cfg
     * supplies the per-node fleet shape (workers / workerSpecs) and
     * the contention switch: with cfg.contend every node gets its
     * own Fabric from cfg.fabricCfg.
     */
    ClusterTopology(const ClusterSpec &spec, const DlrmConfig &model,
                    const ServingConfig &cfg);

    std::uint32_t nodes() const
    {
        return static_cast<std::uint32_t>(_nodes.size());
    }
    ClusterNode &node(std::uint32_t n) { return _nodes[n]; }
    const ClusterNode &node(std::uint32_t n) const { return _nodes[n]; }

    const ClusterSpec &spec() const { return _spec; }
    const EmbeddingShardMap &shardMap() const { return _shardMap; }
    ClusterNetwork &network() { return _network; }
    const ClusterNetwork &network() const { return _network; }

  private:
    ClusterSpec _spec;
    EmbeddingShardMap _shardMap;
    ClusterNetwork _network;
    std::vector<ClusterNode> _nodes;
};

} // namespace centaur

#endif // CENTAUR_CLUSTER_TOPOLOGY_HH
