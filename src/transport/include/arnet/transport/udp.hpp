#pragma once

#include <cstdint>
#include <functional>

#include "arnet/net/network.hpp"
#include "arnet/net/packet.hpp"

namespace arnet::transport {

/// Thin datagram endpoint: fire-and-forget sends plus a receive callback.
class UdpEndpoint {
 public:
  using Handler = std::function<void(net::Packet&&)>;

  UdpEndpoint(net::Network& net, net::NodeId local, net::Port port)
      : net_(net), local_(local), port_(port) {
    net_.node(local_).bind(port_, [this](net::Packet&& p) {
      if (handler_) handler_(std::move(p));
    });
  }

  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  ~UdpEndpoint() { net_.node(local_).unbind(port_); }

  void set_handler(Handler h) { handler_ = std::move(h); }

  void send(net::NodeId to, net::Port port, std::int32_t payload_bytes,
            net::FlowId flow = 0) {
    net::Packet p;
    p.flow = flow;
    p.src = local_;
    p.dst = to;
    p.src_port = port_;
    p.dst_port = port;
    p.size_bytes = payload_bytes + 28;  // IP + UDP headers
    p.header = net::UdpHeader{next_seq_++};
    net_.node(local_).send(std::move(p));
  }

  net::NodeId node() const { return local_; }
  net::Port port() const { return port_; }

 private:
  net::Network& net_;
  net::NodeId local_;
  net::Port port_;
  Handler handler_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace arnet::transport
