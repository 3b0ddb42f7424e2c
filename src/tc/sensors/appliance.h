#ifndef TC_SENSORS_APPLIANCE_H_
#define TC_SENSORS_APPLIANCE_H_

#include <string>
#include <vector>

#include "tc/common/rng.h"

namespace tc::sensors {

/// Appliance classes with distinctive 1 Hz load signatures (Lam's
/// taxonomy, the paper's ref [7]: "at the 1 Hz granularity provided by the
/// Linky, most electrical appliances have a distinctive energy signature").
enum class ApplianceType {
  kFridge,          ///< Cyclic compressor, ~120 W, always plugged.
  kKettle,          ///< 2 kW, short bursts — the classic NILM target.
  kOven,            ///< 2.4 kW with thermostat cycling.
  kWashingMachine,  ///< Multi-phase: heat, tumble, spin.
  kDishwasher,      ///< Heat + pump phases.
  kHeatPump,        ///< Weather-modulated, long duty cycles.
  kEvCharger,       ///< 3.7 kW for hours.
  kTelevision,      ///< ~110 W steady.
  kLighting,        ///< Aggregate evening lighting.
  kBaseLoad,        ///< Standby/network gear, always on.
};

/// Nominal steady-state active power draw of the type's main phase, in
/// watts. This is the feature the NILM attack matches against.
int NominalWatts(ApplianceType type);

/// One activation of an appliance, as a per-second watt trace.
/// `rng` supplies signature jitter (thermostat noise, phase timing).
/// For kHeatPump, `modulation` in [0,1] scales compressor power (driven by
/// outside temperature); other types ignore it.
std::vector<int> ActivationTrace(ApplianceType type, Rng& rng,
                                 double modulation = 0.5);

/// Typical activation duration in seconds (mean of what ActivationTrace
/// produces) — used by schedulers.
int TypicalDurationSeconds(ApplianceType type);

/// Typical duration of the *main constant-power phase* in seconds — the
/// interval a rising/falling edge pair brackets. This, together with
/// NominalWatts, is the (power, duration) signature the NILM attack
/// matches (e.g. a washing machine runs 75 min overall but its heater
/// phase is ~20 min at 2.1 kW).
int SignatureDurationSeconds(ApplianceType type);

}  // namespace tc::sensors

#endif  // TC_SENSORS_APPLIANCE_H_
