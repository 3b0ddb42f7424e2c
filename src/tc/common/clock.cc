#include "tc/common/clock.h"

#include <cstdio>

namespace tc {
namespace {

// Civil-date conversion (Howard Hinnant's algorithm), avoiding any
// dependence on the process time zone.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);           // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;          // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

struct CivilDate {
  int year;
  unsigned month;
  unsigned day;
};

CivilDate CivilFromDays(int64_t z) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);        // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);        // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                             // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                     // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                          // [1, 12]
  return CivilDate{static_cast<int>(y + (m <= 2)), m, d};
}

// Floor division so that pre-1970 timestamps bucket correctly.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

Timestamp WindowStart(Timestamp t, Timestamp window_seconds) {
  return FloorDiv(t, window_seconds) * window_seconds;
}

int64_t DayIndex(Timestamp t) { return FloorDiv(t, kSecondsPerDay); }

int64_t MonthIndex(Timestamp t) {
  CivilDate c = CivilFromDays(DayIndex(t));
  return static_cast<int64_t>(c.year - 1970) * 12 + (c.month - 1);
}

int YearOf(Timestamp t) { return CivilFromDays(DayIndex(t)).year; }

std::string FormatTimestamp(Timestamp t) {
  int64_t days = DayIndex(t);
  CivilDate c = CivilFromDays(days);
  int64_t secs = t - days * kSecondsPerDay;
  int hh = static_cast<int>(secs / 3600);
  int mm = static_cast<int>((secs / 60) % 60);
  int ss = static_cast<int>(secs % 60);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u %02d:%02d:%02d", c.year,
                c.month, c.day, hh, mm, ss);
  return buf;
}

Timestamp MakeTimestamp(int year, int month, int day, int hour, int minute,
                        int second) {
  return DaysFromCivil(year, month, day) * kSecondsPerDay + hour * 3600 +
         minute * 60 + second;
}

}  // namespace tc
