#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "arnet/fleet/server.hpp"

namespace arnet::fleet {

enum class BalancerPolicy {
  kRoundRobin,        ///< cycle through active servers
  kLeastOutstanding,  ///< fewest queued + executing frames
  kLatencyEwma,       ///< lowest request-sojourn EWMA
};

const char* to_string(BalancerPolicy p);

/// Stateless apart from the round-robin cursor; ties always break toward the
/// lowest server index, so a pick is a deterministic function of the servers'
/// visible state and the cursor.
class LoadBalancer {
 public:
  explicit LoadBalancer(BalancerPolicy policy) : policy_(policy) {}

  /// Pick among `servers` (the active set; never empty). Returns an index
  /// into that span.
  std::size_t pick(std::span<const std::unique_ptr<EdgeServer>> servers);

  BalancerPolicy policy() const { return policy_; }

 private:
  BalancerPolicy policy_;
  std::size_t rr_cursor_ = 0;
};

}  // namespace arnet::fleet
