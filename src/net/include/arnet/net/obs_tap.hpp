#pragma once

#include <string>

#include "arnet/net/network.hpp"
#include "arnet/net/observer.hpp"
#include "arnet/obs/registry.hpp"

namespace arnet::net {

/// NetworkObserver that publishes packet life-cycle accounting, network-wide
/// and per flow, into an obs::MetricsRegistry. Registers itself on
/// construction, unregisters on destruction.
///
/// Metrics published:
///  - "net.injected_packets" / "net.delivered_packets" /
///    "net.delivered_bytes" counters under `entity`,
///  - "net.drop.<reason>" counters under `entity` for every DropReason,
///  - per-flow "flow.delivered_packets" / "flow.delivered_bytes" counters
///    and a "flow.delay_ms" end-to-end latency histogram under entity
///    "flow:<id>" (created_at -> delivery time).
///
/// The registry must outlive the tap; the tap must not outlive the network.
class ObsTap final : public NetworkObserver {
 public:
  ObsTap(Network& net, obs::MetricsRegistry& reg, std::string entity = "net");
  ~ObsTap() override;

  ObsTap(const ObsTap&) = delete;
  ObsTap& operator=(const ObsTap&) = delete;

  void on_inject(sim::Time now, const Packet& p) override;
  void on_deliver(sim::Time now, const Packet& p, NodeId at) override;
  void on_drop(sim::Time now, const Packet& p, DropReason reason) override;

 private:
  static std::string flow_entity(FlowId flow);

  Network& net_;
  obs::MetricsRegistry& reg_;
  std::string entity_;
};

}  // namespace arnet::net
