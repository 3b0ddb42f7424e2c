#ifndef TC_COMMON_CLOCK_H_
#define TC_COMMON_CLOCK_H_

#include <cstdint>
#include <string>

namespace tc {

/// Seconds since the Unix epoch. All simulated sensor feeds, policy
/// conditions ("in the course of 2012") and aggregation windows use this.
using Timestamp = int64_t;

inline constexpr Timestamp kSecondsPerMinute = 60;
inline constexpr Timestamp kSecondsPerHour = 3600;
inline constexpr Timestamp kSecondsPerDay = 86400;

/// Time source abstraction so that entire multi-month scenarios (e.g. the
/// Alice/Bob energy-butler year) run deterministically in milliseconds.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual Timestamp Now() const = 0;
};

/// Manually-advanced clock used by simulations and tests.
class SimulatedClock : public Clock {
 public:
  explicit SimulatedClock(Timestamp start = 0) : now_(start) {}
  Timestamp Now() const override { return now_; }
  void Advance(Timestamp seconds) { now_ += seconds; }
  void Set(Timestamp t) { now_ = t; }

 private:
  Timestamp now_;
};

/// Start of the aggregation window of length `window_seconds` containing `t`.
/// Windows are aligned to the epoch, matching how the gateway cell buckets
/// the 1 Hz Linky feed into 15-minute / daily aggregates.
Timestamp WindowStart(Timestamp t, Timestamp window_seconds);

/// Day index since epoch (UTC) for daily statistics.
int64_t DayIndex(Timestamp t);

/// Month index since 1970-01 (UTC) for the monthly series sent to the
/// distribution company.
int64_t MonthIndex(Timestamp t);

/// Civil-calendar year containing `t` (UTC), for UCON conditions such as
/// "accessible in the course of 2012".
int YearOf(Timestamp t);

/// "YYYY-MM-DD HH:MM:SS" (UTC) for logs and reports.
std::string FormatTimestamp(Timestamp t);

/// Timestamp of the given UTC civil date/time. Months/days are 1-based.
Timestamp MakeTimestamp(int year, int month, int day, int hour = 0,
                        int minute = 0, int second = 0);

}  // namespace tc

#endif  // TC_COMMON_CLOCK_H_
