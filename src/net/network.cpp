#include "arnet/net/network.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "arnet/check/assert.hpp"

namespace arnet::net {

const char* to_string(DropReason r) {
  switch (r) {
    case DropReason::kQueue: return "queue";
    case DropReason::kAqm: return "aqm";
    case DropReason::kLinkDown: return "link-down";
    case DropReason::kRandomLoss: return "random-loss";
    case DropReason::kUnroutable: return "unroutable";
  }
  return "unknown";
}

const char* to_string(AppData a) {
  switch (a) {
    case AppData::kConnectionMetadata: return "connection-metadata";
    case AppData::kSensorData: return "sensor-data";
    case AppData::kVideoReferenceFrame: return "video-reference-frame";
    case AppData::kVideoInterFrame: return "video-inter-frame";
    case AppData::kFeaturePayload: return "feature-payload";
    case AppData::kComputeResult: return "compute-result";
    case AppData::kDatabaseObject: return "database-object";
    case AppData::kGeneric: return "generic";
  }
  return "unknown";
}

void Node::send(Packet p) {
  p.src = id_;
  net_.send(std::move(p));
}

void Node::on_packet(Packet&& p) {
  ++received_packets_;
  if (p.dst == id_) {
    // Reaching the destination node is final delivery for conservation
    // accounting, whether or not a handler consumes the payload.
    net_.notify_deliver(p, id_);
    if (auto it = handlers_.find(p.dst_port); it != handlers_.end()) {
      it->second(std::move(p));
    }
    return;
  }
  if (forwarding_delay_ > 0) {
    // Park the packet in the network arena so the closure stays inside the
    // simulator's inline callback buffer (a moved Packet would force a heap
    // allocation per forwarded packet).
    const std::uint32_t slot = net_.arena_.acquire(std::move(p));
    net_.sim_.after(forwarding_delay_,
                    [this, slot] { net_.forward(id_, net_.arena_.take(slot)); });
  } else {
    net_.forward(id_, std::move(p));
  }
}

NodeId Network::add_node(std::string name) {
  auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id, std::move(name)));
  routes_fresh_ = false;
  return id;
}

Link& Network::add_link(NodeId a, NodeId b, Link::Config cfg) {
  if (cfg.name.empty()) cfg.name = node(a).name() + "->" + node(b).name();
  auto link = std::make_unique<Link>(sim_, rng_.fork(cfg.name), std::move(cfg));
  Link* raw = link.get();
  raw->set_sink([this, b](Packet&& p) { node(b).on_packet(std::move(p)); });
  raw->set_drop_hook([this](const Packet& p, DropReason r) { notify_drop(p, r); });
  links_.push_back(std::move(link));
  adjacency_[a][b] = raw;
  routes_fresh_ = false;
  return *raw;
}

std::pair<Link*, Link*> Network::connect(NodeId a, NodeId b, Link::Config ab, Link::Config ba) {
  Link& l1 = add_link(a, b, std::move(ab));
  Link& l2 = add_link(b, a, std::move(ba));
  return {&l1, &l2};
}

std::pair<Link*, Link*> Network::connect(NodeId a, NodeId b, double rate_bps, sim::Time delay,
                                         std::size_t queue_packets) {
  Link::Config cfg;
  cfg.rate_bps = rate_bps;
  cfg.delay = delay;
  cfg.queue_packets = queue_packets;
  Link::Config cfg2;
  cfg2.rate_bps = rate_bps;
  cfg2.delay = delay;
  cfg2.queue_packets = queue_packets;
  return connect(a, b, std::move(cfg), std::move(cfg2));
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  next_hop_.assign(n, std::vector<NodeId>(n, kNoNode));
  // Dijkstra from every source; weights = propagation + nominal serialization.
  for (NodeId src = 0; src < n; ++src) {
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<NodeId> first(n, kNoNode);  // first hop from src
    using Item = std::pair<double, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[src] = 0.0;
    pq.emplace(0.0, src);
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      auto it = adjacency_.find(u);
      if (it == adjacency_.end()) continue;
      for (auto& [v, link] : it->second) {
        double w = sim::to_seconds(link->delay()) + 1500.0 * 8.0 / link->rate_bps();
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          first[v] = (u == src) ? v : first[u];
          pq.emplace(dist[v], v);
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) next_hop_[src][dst] = first[dst];
  }
  routes_fresh_ = true;
}

void Network::ensure_routes() {
  if (!routes_fresh_) compute_routes();
}

void Network::send(Packet p) {
  if (p.uid == 0) p.uid = assign_uid();
  if (p.created_at == 0) p.created_at = sim_.now();
  notify_inject(p);
  deliver_or_forward(p.src, std::move(p));
}

void Network::send_via(Link& first_hop, Packet p) {
  if (p.uid == 0) p.uid = assign_uid();
  if (p.created_at == 0) p.created_at = sim_.now();
  notify_inject(p);
  first_hop.send(std::move(p));
}

void Network::add_observer(NetworkObserver* obs) {
  ARNET_CHECK(obs != nullptr, "null NetworkObserver");
  observers_.push_back(obs);
}

void Network::remove_observer(NetworkObserver* obs) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), obs), observers_.end());
}

void Network::notify_inject(const Packet& p) {
  for (NetworkObserver* o : observers_) o->on_inject(sim_.now(), p);
}

void Network::notify_deliver(const Packet& p, NodeId at) {
  for (NetworkObserver* o : observers_) o->on_deliver(sim_.now(), p, at);
}

void Network::notify_drop(const Packet& p, DropReason r) {
  for (NetworkObserver* o : observers_) o->on_drop(sim_.now(), p, r);
}

Link* Network::link_between(NodeId a, NodeId b) {
  auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return nullptr;
  auto jt = it->second.find(b);
  return jt == it->second.end() ? nullptr : jt->second;
}

void Network::deliver_or_forward(NodeId at, Packet&& p) {
  if (p.dst == at) {
    // Local delivery without touching any link; decouple via the event loop
    // to avoid handler reentrancy. The packet is parked in the arena so the
    // closure fits the simulator's inline callback buffer.
    const std::uint32_t slot = arena_.acquire(std::move(p));
    sim_.after(0, [this, at, slot] { node(at).on_packet(arena_.take(slot)); });
    return;
  }
  forward(at, std::move(p));
}

void Network::forward(NodeId at, Packet&& p) {
  ensure_routes();
  NodeId nh = next_hop_.at(at).at(p.dst);
  if (nh == kNoNode) {  // unroutable: drop
    notify_drop(p, DropReason::kUnroutable);
    return;
  }
  Link* link = adjacency_.at(at).at(nh);
  link->send(std::move(p));
}

}  // namespace arnet::net
