#ifndef TC_TEE_DEVICE_PROFILE_H_
#define TC_TEE_DEVICE_PROFILE_H_

#include <cstdint>
#include <string>

namespace tc::tee {

/// The hardware classes the paper names as trusted-cell substrates.
enum class DeviceClass {
  kSecureToken,   ///< Smart card / secure USB token: tiny RAM, slow CPU.
  kSensorNode,    ///< Trusted source attached to a meter or GPS box.
  kSmartPhone,    ///< TrustZone-class phone (portable trusted cell).
  kHomeGateway,   ///< Set-top box / home gateway (fixed trusted cell).
};

/// Resource envelope of a simulated trusted cell.
///
/// The paper's central systems challenge is that the *same* data-management
/// stack must run from "a microcontroller with tiny RAM, connected to NAND
/// Flash" up to TrustZone smartphones and gateways. The profile carries the
/// constraints the storage/db layers enforce (RAM budget) and the scaling
/// factors the benchmark harness uses to report per-class results
/// (cpu_slowdown multiplies measured CPU time; I/O latencies parameterize
/// the simulated flash device and network).
struct DeviceProfile {
  std::string name;
  DeviceClass device_class;

  /// RAM available to the embedded datastore (indexes, caches, buffers).
  size_t ram_budget_bytes;

  /// Multiplier applied to measured CPU time when reporting simulated
  /// latency for this class (a secure token's MCU is ~50x slower than the
  /// lab machine; a gateway ~2x).
  double cpu_slowdown;

  /// NAND flash timing (microseconds) for the simulated storage device.
  uint64_t flash_read_page_us;
  uint64_t flash_program_page_us;
  uint64_t flash_erase_block_us;

  /// Network round-trip to the untrusted infrastructure (milliseconds) and
  /// uplink throughput (bytes/second); drives the cloud latency model.
  uint64_t network_rtt_ms;
  uint64_t network_uplink_bps;

  /// Predefined profile per class (values representative of 2012-era
  /// hardware, documented in DESIGN.md).
  static const DeviceProfile& Get(DeviceClass device_class);
};

}  // namespace tc::tee

#endif  // TC_TEE_DEVICE_PROFILE_H_
