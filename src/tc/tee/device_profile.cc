#include "tc/tee/device_profile.h"

#include "tc/common/macros.h"

namespace tc::tee {

const DeviceProfile& DeviceProfile::Get(DeviceClass device_class) {
  // Representative 2012-era numbers:
  //  - secure token: ST33-class MCU, 64 KiB usable RAM, raw NAND.
  //  - sensor node: metering MCU with a small data buffer.
  //  - smartphone: TrustZone secure world with a RAM carve-out, eMMC.
  //  - gateway: set-top-box SoC, generous RAM, fast local flash.
  static const DeviceProfile kToken{
      "secure-token", DeviceClass::kSecureToken,
      64ull * 1024,          // 64 KiB RAM.
      50.0,                  // ~20 MHz-class MCU vs lab machine.
      150, 450, 2500,        // Slow raw NAND.
      80, 32 * 1024,         // Tethered, slow uplink.
  };
  static const DeviceProfile kSensor{
      "sensor-node", DeviceClass::kSensorNode,
      32ull * 1024,
      80.0,
      200, 600, 3000,
      120, 16 * 1024,
  };
  static const DeviceProfile kPhone{
      "smartphone", DeviceClass::kSmartPhone,
      64ull * 1024 * 1024,   // 64 MiB secure-world carve-out.
      6.0,
      60, 200, 1500,
      60, 512 * 1024,
  };
  static const DeviceProfile kGateway{
      "home-gateway", DeviceClass::kHomeGateway,
      512ull * 1024 * 1024,
      2.0,
      40, 150, 1200,
      30, 2 * 1024 * 1024,
  };
  switch (device_class) {
    case DeviceClass::kSecureToken:
      return kToken;
    case DeviceClass::kSensorNode:
      return kSensor;
    case DeviceClass::kSmartPhone:
      return kPhone;
    case DeviceClass::kHomeGateway:
      return kGateway;
  }
  TC_CHECK(false);
  return kToken;
}

}  // namespace tc::tee
