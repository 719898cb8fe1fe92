#include "arnet/fleet/admission.hpp"

#include <algorithm>

#include "arnet/check/assert.hpp"
#include "arnet/mar/cost_model.hpp"

namespace arnet::fleet {

const char* to_string(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kAdmit:
      return "admit";
    case AdmissionDecision::kDowngrade:
      return "downgrade";
    case AdmissionDecision::kReject:
      return "reject";
  }
  return "?";
}

namespace {

/// The reject, readmit and downgrade lines as fractions of the deadline
/// (see AdmissionConfig).
constexpr double kRejectFactor = 1.0;
constexpr double kReadmitFactor = 0.80;
constexpr double kDowngradeFactor = 0.90;

/// The projection's rank from the top: a sort of n samples puts the p99 at
/// index floor(0.99 * (n - 1)), which is the k-th largest for this k.
std::size_t p99_rank(std::size_t n) {
  return n - static_cast<std::size_t>(0.99 * static_cast<double>(n - 1));
}

/// Insert `v` into the descending list top[0, len) capped at `cap` entries;
/// returns false (list unchanged) when the list is full and `v` would not
/// displace its smallest entry.
bool insert_descending(double* top, std::size_t& len, std::size_t cap, double v) {
  if (len == cap && !(v > top[len - 1])) return false;
  std::size_t j = len < cap ? len++ : len - 1;
  for (; j > 0 && top[j - 1] < v; --j) top[j] = top[j - 1];
  top[j] = v;
  return true;
}

}  // namespace

AdmissionController::AdmissionController(AdmissionConfig cfg) : cfg_(cfg) {
  ARNET_CHECK(cfg_.window >= 1, "admission window must hold at least one sample");
  top_k_ = p99_rank(cfg_.window);
  const std::size_t blocks = (cfg_.window + kBlock - 1) / kBlock;
  latencies_.assign(cfg_.window, 0.0);
  top_.assign(blocks * top_k_, 0.0);
  top_len_.assign(blocks, 0);
  merged_.assign(top_k_, 0.0);
}

void AdmissionController::rescan_block(std::size_t block) const {
  double* top = &top_[block * top_k_];
  std::size_t len = 0;
  const std::size_t end = std::min(filled_, (block + 1) * kBlock);
  // Newest first: the fluid stencil writes each block in ascending order, so
  // the largest samples enter first and the rest fail one compare each.
  for (std::size_t i = end; i-- > block * kBlock;) {
    insert_descending(top, len, top_k_, latencies_[i]);
  }
  top_len_[block] = len;
}

double AdmissionController::projected_p99_ms() const {
  if (filled_ == 0) return 0.0;
  if (unqueried_ == 0) return p99_;
  const std::size_t blocks = top_len_.size();
  if (unqueried_ + kBlock > cfg_.window) {
    for (std::size_t b = 0; b < blocks; ++b) rescan_block(b);
  } else {
    // The unqueried samples are the ring slots just before next_slot_; the
    // range is too short to wrap back into its own first block.
    const std::size_t first = next_slot_ >= unqueried_ ? next_slot_ - unqueried_
                                                       : next_slot_ + cfg_.window - unqueried_;
    const std::size_t last = (next_slot_ == 0 ? cfg_.window : next_slot_) - 1;
    for (std::size_t b = first / kBlock;; b = b + 1 == blocks ? 0 : b + 1) {
      rescan_block(b);
      if (b == last / kBlock) break;
    }
  }
  unqueried_ = 0;
  // k <= top_k_ (the rank never decreases as the window fills), and the k
  // largest samples all sit in their blocks' lists: the k-th largest of the
  // merged lists is the window's. A list stops at its first entry that
  // cannot enter the (full) merge, since the rest are no larger.
  const std::size_t k = p99_rank(filled_);
  std::size_t len = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* top = &top_[b * top_k_];
    for (std::size_t i = 0; i < top_len_[b]; ++i) {
      if (!insert_descending(merged_.data(), len, k, top[i])) break;
    }
  }
  p99_ = merged_[k - 1];
  return p99_;
}

AdmissionDecision AdmissionController::decide(sim::Time now, std::uint64_t session) {
  if (!cfg_.enabled) return AdmissionDecision::kAdmit;
  const double p99 = projected_p99_ms();
  const double deadline_ms = sim::to_milliseconds(mar::kFrameDeadline);
  AdmissionDecision d = AdmissionDecision::kAdmit;
  if (filled_ >= cfg_.min_samples) {
    if (overloaded_) {
      // Hysteresis: stay tripped until p99 clears the lower water mark.
      if (p99 < deadline_ms * kReadmitFactor) {
        overloaded_ = false;
      } else {
        d = AdmissionDecision::kReject;
      }
    }
    if (!overloaded_) {
      if (p99 > deadline_ms * kRejectFactor) {
        overloaded_ = true;
        d = AdmissionDecision::kReject;
      } else if (cfg_.allow_downgrade && p99 > deadline_ms * kDowngradeFactor) {
        d = AdmissionDecision::kDowngrade;
      }
    }
  }
  log_.push_back(AdmissionLogEntry{now, session, d, p99});
  return d;
}

}  // namespace arnet::fleet
