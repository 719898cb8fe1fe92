#include "arnet/fleet/balancer.hpp"

#include "arnet/check/assert.hpp"

namespace arnet::fleet {

const char* to_string(BalancerPolicy p) {
  switch (p) {
    case BalancerPolicy::kRoundRobin:
      return "round-robin";
    case BalancerPolicy::kLeastOutstanding:
      return "least-outstanding";
    case BalancerPolicy::kLatencyEwma:
      return "latency-ewma";
  }
  return "?";
}

std::size_t LoadBalancer::pick(std::span<const std::unique_ptr<EdgeServer>> servers) {
  ARNET_CHECK(!servers.empty(), "balancer needs at least one active server");
  switch (policy_) {
    case BalancerPolicy::kRoundRobin:
      return rr_cursor_++ % servers.size();
    case BalancerPolicy::kLeastOutstanding: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < servers.size(); ++i) {
        if (servers[i]->outstanding() < servers[best]->outstanding()) best = i;
      }
      return best;
    }
    case BalancerPolicy::kLatencyEwma: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < servers.size(); ++i) {
        if (servers[i]->sojourn_ewma_ms() < servers[best]->sojourn_ewma_ms()) best = i;
      }
      return best;
    }
  }
  return 0;
}

}  // namespace arnet::fleet
