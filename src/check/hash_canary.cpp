#include "arnet/check/hash_canary.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

namespace arnet::check {
namespace {

// Registered singletons (tools/arnet_analyze/rules.py): the canary seed is
// process-wide by design — every PerturbedHash in every translation unit
// must agree on it, or the two-seed probe comparison proves nothing.
std::atomic<std::uint64_t> g_hash_seed{0};
std::once_flag g_hash_seed_once;

void load_env_seed() {
  const char* env = std::getenv("ARNET_HASH_SEED");
  if (env == nullptr || *env == '\0') return;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(env, &end, 0);
  if (end != nullptr && *end == '\0') {
    g_hash_seed.store(v, std::memory_order_relaxed);
  }
}

}  // namespace

std::uint64_t hash_seed() noexcept {
  std::call_once(g_hash_seed_once, load_env_seed);
  return g_hash_seed.load(std::memory_order_relaxed);
}

void set_hash_seed(std::uint64_t seed) noexcept {
  // Force the env read first so a later first call cannot clobber the
  // explicit override.
  std::call_once(g_hash_seed_once, load_env_seed);
  g_hash_seed.store(seed, std::memory_order_relaxed);
}

std::uint64_t perturbed_mix(std::uint64_t v) noexcept {
  // SplitMix64 finalizer, the same mixer sim::derive_seed builds on.
  std::uint64_t z = v ^ hash_seed() ^ 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace arnet::check
