// Hamming nearest-two kernels behind match_descriptors (features.cpp). Not
// part of the public include tree: the tests run every kernel the host can
// run through this header, not only the one the process selected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arnet/vision/features.hpp"

namespace arnet::vision::detail {

/// A query's two nearest train descriptors, as a first-to-last scan finds
/// them: the smallest distance `best` at its first index `best_ti`, and
/// `second`, the smallest distance of the other indices (a repeat of `best`
/// counts). With no train descriptor both distances are 1 << 30 and the
/// index is -1.
struct Nearest2 {
  int best;
  int second;
  int best_ti;
};

/// One implementation of the nearest-two scan. Every kernel returns the same
/// Nearest2 for the same input; they differ only in the instructions used.
struct HammingKernel {
  const char* name;
  /// Can this host run the kernel? Asked at run time (CPUID on x86-64).
  bool (*host_runs)();
  /// Reads the train set as word planes (MatchScratch::planes) instead of
  /// as descriptors.
  bool transposed;
  Nearest2 (*nearest2)(const Descriptor& query, const std::vector<Descriptor>& train,
                       const std::vector<std::uint64_t>& planes);
};

/// Every kernel compiled into this build, slowest first. The portable scan
/// is always first and runs everywhere.
std::span<const HammingKernel> hamming_kernels();

/// The fastest kernel this host runs, chosen once per process.
const HammingKernel& selected_hamming_kernel();

/// match_descriptors (the scratch-reusing form) with `kernel` for the
/// nearest-two scan. The host must run the kernel.
void match_descriptors_with(const HammingKernel& kernel, const std::vector<Descriptor>& query,
                            const std::vector<Descriptor>& train, std::vector<Match>& out,
                            MatchScratch& scratch, double max_ratio, int max_distance);

}  // namespace arnet::vision::detail
