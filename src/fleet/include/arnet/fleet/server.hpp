#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory_resource>
#include <string>
#include <vector>

#include "arnet/mar/device.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/trace/telemetry.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::fleet {

/// How batched execution forms and costs its batches. A batch executes once
/// it holds kMaxBatch requests or its oldest request has queued for
/// kBatchTimeout — the classic size-or-timeout formation rule. The
/// service-time curve is the inference-serving shape: the first item pays
/// full cost, each extra item only its marginal fraction, so per-item time
/// falls sub-linearly with occupancy:
///
///   service(items) = setup + w_max + marginal * (sum(w) - w_max)
///
/// where w are the items' single-item reference costs. `marginal` = 1 makes
/// batching a pure FIFO aggregate (no speedup); `enabled` = false degrades
/// to one-request batches (the unbatched ablation).
inline constexpr int kMaxBatch = 8;
inline constexpr sim::Time kBatchTimeout = sim::milliseconds(4);

struct BatchConfig {
  bool enabled = true;
  sim::Time setup = sim::milliseconds(1);  ///< fixed per-batch cost, reference
  double marginal = 0.35;                  ///< cost fraction of each extra item
  /// Parallel batch lanes (GPU streams / worker replicas) per server.
  int executors = 2;
};

/// One unit of server work: a frame's server-side stage.
struct ComputeRequest {
  std::uint64_t uid = 0;      ///< unique request id (trace uid)
  std::uint64_t session = 0;
  std::uint32_t frame = 0;
  sim::Time work = 0;         ///< single-item reference cost (pre device-scale)
  trace::TraceContext trace;
  std::function<void()> done;
};

/// The silicon every edge server runs on: stage costs are scaled by its
/// Table I compute_scale.
inline constexpr mar::DeviceClass kServerClass = mar::DeviceClass::kDesktop;

struct EdgeServerConfig {
  BatchConfig batch;
  /// Observers; the server publishes into `metrics` and records into
  /// `tracer`, and reads no other member.
  trace::Telemetry telemetry;
  std::string entity = "fleet/server:0";
};

/// A batched compute queue in front of `executors` parallel lanes, and the
/// one server-queue model: with `batch.enabled = false` and `batch.setup = 0`
/// it is the plain FIFO worker pool an OffloadSession's server-compute hook
/// submits to. Requests queue FIFO; batches form on max-size or oldest-request timeout;
/// every request of a batch completes when the batch does. Deterministic:
/// formation depends only on arrival order and simulated time.
class EdgeServer {
 public:
  EdgeServer(sim::Simulator& sim, EdgeServerConfig cfg);

  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  void submit(ComputeRequest req);

  /// Queued + executing requests (the balancer's "outstanding frames").
  int outstanding() const { return static_cast<int>(queue_.size()) + executing_; }

  /// EWMA of request sojourn time (queue wait + service), for the
  /// latency-aware balancer. 0 until the first completion.
  double sojourn_ewma_ms() const { return sojourn_ewma_ms_; }

  /// Cumulative lane-busy time; windowed utilization is a delta of this over
  /// `executors * window` (the autoscaler's signal).
  sim::Time busy_time() const { return busy_; }
  /// Mean utilization over [0, now].
  double utilization() const;

  std::int64_t requests() const { return requests_; }
  std::int64_t batches() const { return batches_; }
  bool idle() const { return queue_.empty() && executing_ == 0; }

  const EdgeServerConfig& config() const { return cfg_; }

 private:
  struct Queued {
    ComputeRequest req;
    sim::Time enqueued = 0;
  };

  /// Memory for the request deque. Up to kKept freed blocks are held and
  /// handed back to the next request of the same size, so a queue whose
  /// depth moves within a few blocks allocates nothing once warm (a plain
  /// deque allocates a block every few requests). Blocks past that go
  /// back to the heap, so a drained backlog's memory is free for other
  /// servers instead of being held for the run.
  class KeptBlocks final : public std::pmr::memory_resource {
   public:
    KeptBlocks() = default;
    KeptBlocks(const KeptBlocks&) = delete;
    KeptBlocks& operator=(const KeptBlocks&) = delete;
    ~KeptBlocks() override;

   private:
    void* do_allocate(std::size_t bytes, std::size_t align) override;
    void do_deallocate(void* p, std::size_t bytes, std::size_t align) override;
    bool do_is_equal(const std::pmr::memory_resource& o) const noexcept override {
      return this == &o;
    }

    struct Block {
      void* p = nullptr;
      std::size_t bytes = 0;
      std::size_t align = 0;
    };
    static constexpr std::size_t kKept = 16;
    std::array<Block, kKept> kept_{};
    std::size_t count_ = 0;
  };

  /// One executor lane: the batch it runs, formed in a buffer the lane
  /// reuses from batch to batch.
  struct Lane {
    std::vector<Queued> batch;
    std::uint64_t batch_id = 0;
    sim::Time service = 0;
  };

  /// The server's instruments, each resolved on first touch.
  struct Instruments {
    obs::Handle<obs::Counter> requests, batches;
    obs::Handle<obs::Gauge> depth;
    obs::Handle<obs::Histogram> batch_size, sojourn;
  };

  void try_dispatch();
  void run_batch(std::uint32_t lane);
  void complete_batch(std::uint32_t lane);
  void publish_depth();

  sim::Simulator& sim_;
  EdgeServerConfig cfg_;
  const mar::DeviceProfile& profile_;
  KeptBlocks queue_memory_;  ///< outlives queue_, declared before it
  std::pmr::deque<Queued> queue_{&queue_memory_};
  std::vector<Lane> lanes_;                ///< max(1, executors) lanes
  std::vector<std::uint32_t> free_lanes_;  ///< idle lane ids
  /// The completed batch while its requests' `done` callbacks run. Its lane
  /// is already free then, and a `done` that submits again may dispatch
  /// into that lane, so the batch leaves the lane's buffer first (a swap:
  /// both buffers keep their capacity).
  std::vector<Queued> draining_;
  int executing_ = 0;  ///< requests currently inside a running batch
  sim::Timer batch_timer_;  ///< the queue head's batch-formation deadline
  std::uint64_t next_batch_id_ = 0;
  std::int64_t requests_ = 0;
  std::int64_t batches_ = 0;
  sim::Time busy_ = 0;
  double sojourn_ewma_ms_ = 0.0;
  trace::Emitter trace_;
  Instruments instruments_;
};

}  // namespace arnet::fleet
