#include "tc/sensors/appliance.h"

#include <algorithm>
#include <cmath>

namespace tc::sensors {

int NominalWatts(ApplianceType type) {
  switch (type) {
    case ApplianceType::kFridge:
      return 120;
    case ApplianceType::kKettle:
      return 2000;
    case ApplianceType::kOven:
      return 2400;
    case ApplianceType::kWashingMachine:
      return 2100;  // Heating phase.
    case ApplianceType::kDishwasher:
      return 1800;
    case ApplianceType::kHeatPump:
      return 1500;
    case ApplianceType::kEvCharger:
      return 3700;
    case ApplianceType::kTelevision:
      return 110;
    case ApplianceType::kLighting:
      return 180;
    case ApplianceType::kBaseLoad:
      return 70;
  }
  return 0;
}

int TypicalDurationSeconds(ApplianceType type) {
  switch (type) {
    case ApplianceType::kFridge:
      return 600;  // One compressor cycle.
    case ApplianceType::kKettle:
      return 150;
    case ApplianceType::kOven:
      return 2700;
    case ApplianceType::kWashingMachine:
      return 4500;
    case ApplianceType::kDishwasher:
      return 3600;
    case ApplianceType::kHeatPump:
      return 1800;
    case ApplianceType::kEvCharger:
      return 9000;
    case ApplianceType::kTelevision:
      return 2 * 3600;
    case ApplianceType::kLighting:
      return 4 * 3600;
    case ApplianceType::kBaseLoad:
      return 86400;
  }
  return 0;
}

int SignatureDurationSeconds(ApplianceType type) {
  switch (type) {
    case ApplianceType::kFridge:
      return 600;   // One compressor cycle.
    case ApplianceType::kKettle:
      return 150;
    case ApplianceType::kOven:
      return 600;   // Warm-up at full power.
    case ApplianceType::kWashingMachine:
      return 1200;  // Heater phase.
    case ApplianceType::kDishwasher:
      return 900;   // Main heat phase.
    case ApplianceType::kHeatPump:
      return 1500;
    case ApplianceType::kEvCharger:
      return 9000;  // ~2.5 h at full rate.
    case ApplianceType::kTelevision:
      return 2 * 3600;
    case ApplianceType::kLighting:
      return 3 * 3600 + 1800;
    case ApplianceType::kBaseLoad:
      return 86400;
  }
  return 0;
}

namespace {

/// Steady draw with small measurement noise.
void FillSteady(std::vector<int>& trace, size_t from, size_t to, int watts,
                Rng& rng, int noise = 4) {
  for (size_t i = from; i < to && i < trace.size(); ++i) {
    trace[i] = std::max(0, watts + static_cast<int>(rng.NextInt(-noise, noise)));
  }
}

}  // namespace

std::vector<int> ActivationTrace(ApplianceType type, Rng& rng,
                                 double modulation) {
  switch (type) {
    case ApplianceType::kFridge: {
      // Compressor on for 8-12 min at ~120 W with a start surge.
      int duration = static_cast<int>(rng.NextInt(480, 720));
      std::vector<int> trace(duration, 0);
      FillSteady(trace, 0, trace.size(), 120, rng);
      for (int i = 0; i < 3 && i < duration; ++i) trace[i] = 350 - i * 60;
      return trace;
    }
    case ApplianceType::kKettle: {
      int duration = static_cast<int>(rng.NextInt(120, 200));
      std::vector<int> trace(duration, 0);
      FillSteady(trace, 0, trace.size(), 2000, rng, 12);
      return trace;
    }
    case ApplianceType::kOven: {
      // Full power to temperature, then thermostat cycles 30s on/90s off.
      int duration = static_cast<int>(rng.NextInt(2100, 3300));
      std::vector<int> trace(duration, 0);
      int warmup = std::min(600, duration);
      FillSteady(trace, 0, warmup, 2400, rng, 15);
      size_t i = warmup;
      while (i < trace.size()) {
        size_t on_end = std::min(trace.size(), i + 30);
        FillSteady(trace, i, on_end, 2400, rng, 15);
        i = on_end + 90;
      }
      return trace;
    }
    case ApplianceType::kWashingMachine: {
      // Heat (20 min, 2.1 kW), tumble (35 min, ~300 W modulated),
      // spin (5 min, ~500 W ramps).
      int heat = static_cast<int>(rng.NextInt(1000, 1400));
      int tumble = static_cast<int>(rng.NextInt(1800, 2400));
      int spin = static_cast<int>(rng.NextInt(240, 360));
      std::vector<int> trace(heat + tumble + spin, 0);
      FillSteady(trace, 0, heat, 2100, rng, 20);
      for (int i = 0; i < tumble; ++i) {
        // Drum motor pulses: 12 s on, 4 s pause.
        trace[heat + i] = (i % 16 < 12)
                              ? 290 + static_cast<int>(rng.NextInt(-20, 20))
                              : 25;
      }
      for (int i = 0; i < spin; ++i) {
        double ramp = std::min(1.0, i / 60.0);
        trace[heat + tumble + i] =
            static_cast<int>(500 * ramp) +
            static_cast<int>(rng.NextInt(-15, 15));
      }
      return trace;
    }
    case ApplianceType::kDishwasher: {
      // Pre-wash pump, heat, wash pump, heat (dry).
      std::vector<int> trace(3600, 0);
      FillSteady(trace, 0, 600, 80, rng);          // Pre-wash pump.
      FillSteady(trace, 600, 1500, 1800, rng, 20); // Main heat.
      FillSteady(trace, 1500, 2700, 120, rng);     // Wash/rinse pump.
      FillSteady(trace, 2700, 3300, 1800, rng, 20);// Dry heat.
      FillSteady(trace, 3300, 3600, 30, rng, 2);
      return trace;
    }
    case ApplianceType::kHeatPump: {
      // Fixed-speed compressor: cold weather lengthens cycles and raises
      // power only slightly (defrost overhead); demand shows mostly in the
      // duty cycle the household scheduler applies.
      double m = std::clamp(modulation, 0.0, 1.0);
      int duration =
          static_cast<int>(rng.NextInt(900, 1300)) + static_cast<int>(m * 1200);
      int watts = 1400 + static_cast<int>(m * 200.0);
      std::vector<int> trace(duration, 0);
      FillSteady(trace, 0, trace.size(), watts, rng, 30);
      return trace;
    }
    case ApplianceType::kEvCharger: {
      // 3.7 kW until the pack is full (1.25-4 h for a ~40 km commuting
      // day), then a quick cutoff ramp. `modulation` models eco-driving:
      // 1.0 = normal daily distance, lower = fewer km to recharge.
      double eco = 0.7 + 0.3 * std::clamp(modulation, 0.0, 1.0);
      int duration =
          static_cast<int>(rng.NextInt(4500, 14400) * eco);
      std::vector<int> trace(duration, 0);
      FillSteady(trace, 0, trace.size(), 3700, rng, 25);
      int taper = std::min(60, duration);
      for (int i = 0; i < taper; ++i) {
        trace[duration - taper + i] =
            static_cast<int>(3700.0 * (1.0 - static_cast<double>(i) / taper));
      }
      return trace;
    }
    case ApplianceType::kTelevision: {
      int duration = static_cast<int>(rng.NextInt(3600, 4 * 3600));
      std::vector<int> trace(duration, 0);
      FillSteady(trace, 0, trace.size(), 110, rng, 10);
      return trace;
    }
    case ApplianceType::kLighting: {
      int duration = static_cast<int>(rng.NextInt(2 * 3600, 5 * 3600));
      std::vector<int> trace(duration, 0);
      FillSteady(trace, 0, trace.size(), 180, rng, 25);
      return trace;
    }
    case ApplianceType::kBaseLoad: {
      std::vector<int> trace(86400, 0);
      FillSteady(trace, 0, trace.size(), 70, rng, 6);
      return trace;
    }
  }
  return {};
}

}  // namespace tc::sensors
