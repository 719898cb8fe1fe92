#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "arnet/sim/time.hpp"

namespace arnet::mar {

/// Device classes of the paper's Table I.
enum class DeviceClass {
  kSmartGlasses,
  kSmartphone,
  kTablet,
  kLaptop,
  kDesktop,
  kCloud,
};
inline constexpr std::size_t kDeviceClassCount = 6;

/// One row of Table I, extended with a calibrated compute scale used by the
/// offloading cost model: `compute_scale` multiplies the reference
/// (desktop) per-frame vision costs measured by the micro-benchmarks.
struct DeviceProfile {
  DeviceClass cls{};
  std::string name;
  std::string computing_power;   ///< qualitative, as printed in Table I
  std::string storage;
  std::string battery_life;
  std::string network_access;
  std::string portability;
  /// Vision work runs this many times slower than the desktop reference.
  double compute_scale = 1.0;
  /// Watts drawn while running the vision pipeline flat out (battery model).
  double active_power_w = 0.0;
  double battery_wh = 0.0;  ///< 0 = mains powered
};

const DeviceProfile& device_profile(DeviceClass cls);
const std::vector<DeviceProfile>& all_device_profiles();

/// Stage cost on a specific device.
sim::Time scaled_cost(const DeviceProfile& dev, sim::Time reference_cost);

}  // namespace arnet::mar
