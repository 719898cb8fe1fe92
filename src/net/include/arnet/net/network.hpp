#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arnet/net/link.hpp"
#include "arnet/net/observer.hpp"
#include "arnet/net/packet.hpp"
#include "arnet/net/packet_arena.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"

namespace arnet::net {

class Network;

/// Handler invoked when a packet reaches its destination node and port.
using PacketHandler = std::function<void(Packet&&)>;

/// A host or router. Endpoints bind transport handlers to ports; routers
/// forward by the network's next-hop tables. `forwarding_delay` models
/// middlebox processing (firewalls etc., paper §IV-B's university scenario).
class Node {
 public:
  Node(Network& net, NodeId id, std::string name)
      : net_(net), id_(id), name_(std::move(name)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  void bind(Port port, PacketHandler handler) { handlers_[port] = std::move(handler); }
  void unbind(Port port) { handlers_.erase(port); }

  void set_forwarding_delay(sim::Time d) { forwarding_delay_ = d; }
  sim::Time forwarding_delay() const { return forwarding_delay_; }

  /// Send from this node toward p.dst via computed routes.
  void send(Packet p);

  /// Called by the network layer on packet arrival at this node.
  void on_packet(Packet&& p);

  std::int64_t received_packets() const { return received_packets_; }

 private:
  Network& net_;
  NodeId id_;
  std::string name_;
  sim::Time forwarding_delay_ = 0;
  // std::map, not unordered: port->handler lookup is tiny, and ordered
  // iteration keeps any future per-node sweeps deterministic (lint policy).
  std::map<Port, PacketHandler> handlers_;
  std::int64_t received_packets_ = 0;
};

/// Topology container: nodes, directed links, shortest-path routing.
class Network {
 public:
  Network(sim::Simulator& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {}

  NodeId add_node(std::string name);
  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }

  /// Create a directed link a->b. Routing is recomputed lazily.
  Link& add_link(NodeId a, NodeId b, Link::Config cfg);

  /// Create a duplex pipe: returns {a->b, b->a}.
  std::pair<Link*, Link*> connect(NodeId a, NodeId b, Link::Config ab, Link::Config ba);

  /// Symmetric convenience: same rate/delay both ways.
  std::pair<Link*, Link*> connect(NodeId a, NodeId b, double rate_bps, sim::Time delay,
                                  std::size_t queue_packets = 100);

  /// Dijkstra over (propagation + 1500B serialization) per hop.
  void compute_routes();

  /// Inject a packet at node p.src; routes hop by hop to p.dst.
  void send(Packet p);

  /// Inject on an explicit first-hop link (client-side path/policy routing
  /// for multipath); later hops follow computed routes.
  void send_via(Link& first_hop, Packet p);

  Link* link_between(NodeId a, NodeId b);

  sim::Simulator& sim() { return sim_; }
  std::uint64_t assign_uid() { return next_uid_++; }
  sim::Rng fork_rng(std::string_view label) { return rng_.fork(label); }

  /// Claim a contiguous block of ephemeral ports. Per-network, not
  /// process-global: a scenario rebuilt from the same seed binds identical
  /// ports, so its traces fingerprint identically (determinism harness).
  ///
  /// Released blocks are recycled LIFO per block size before the bump
  /// allocator advances, so long-lived networks that churn sessions (the
  /// fleet serving layer admits and retires thousands) never exhaust the
  /// 16-bit port space. LIFO reuse is a deterministic function of the
  /// allocate/release sequence, which is itself seed-determined.
  Port allocate_port_block(Port count) {
    auto it = free_port_blocks_.find(count);
    if (it != free_port_blocks_.end() && !it->second.empty()) {
      Port base = it->second.back();
      it->second.pop_back();
      return base;
    }
    Port base = next_port_;
    next_port_ = static_cast<Port>(next_port_ + count);
    return base;
  }

  /// Return a block claimed by `allocate_port_block` for reuse. Callers must
  /// have unbound every handler in the block first (transport destructors
  /// do), or a later claimant would receive a port with a stale handler.
  void release_port_block(Port base, Port count) {
    free_port_blocks_[count].push_back(base);
  }

  /// Register every link added so far as a trace entity ("link:<name>"),
  /// replacing each link's earlier attachment. Call after the topology is
  /// built; links added later are not traced.
  void attach_trace(trace::Tracer& tracer) {
    for (auto& link : links_) link->attach({.tracer = &tracer}, "link:" + link->name());
  }

  /// Life-cycle observers (inject/deliver/drop); see NetworkObserver. Several
  /// may be registered (auditor + trace recorder); notification order is
  /// registration order. Observers must outlive the network or remove
  /// themselves first.
  void add_observer(NetworkObserver* obs);
  void remove_observer(NetworkObserver* obs);

 private:
  friend class Node;
  void forward(NodeId at, Packet&& p);
  void deliver_or_forward(NodeId at, Packet&& p);
  void ensure_routes();
  void notify_inject(const Packet& p);
  void notify_deliver(const Packet& p, NodeId at);
  void notify_drop(const Packet& p, DropReason r);

  sim::Simulator& sim_;
  sim::Rng rng_;
  /// Packets in the event-loop gap between hops (local delivery decoupling,
  /// forwarding delay). Slots are LIFO-recycled; closures capture the 4-byte
  /// slot instead of the ~200-byte Packet.
  PacketArena arena_;
  std::uint64_t next_uid_ = 1;
  Port next_port_ = 5000;  ///< ephemeral range start
  // count -> LIFO stack of released block bases (deterministic reuse order).
  std::map<Port, std::vector<Port>> free_port_blocks_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  // adjacency[a][b] -> first link a->b
  std::map<NodeId, std::map<NodeId, Link*>> adjacency_;
  // next_hop_[a][dst] -> neighbor
  std::vector<std::vector<NodeId>> next_hop_;
  bool routes_fresh_ = false;
  std::vector<NetworkObserver*> observers_;
};

}  // namespace arnet::net
