#include "db/value.h"

#include <cstdio>

namespace stc::db {

int Value::compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    // NULL == NULL, NULL < anything else.
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (type_ == ValueType::kString || other.type_ == ValueType::kString) {
    STC_DCHECK(type_ == other.type_);
    return s_.compare(other.s_);
  }
  // Numeric comparison (int/int fast path avoids rounding).
  if (type_ == ValueType::kInt && other.type_ == ValueType::kInt) {
    if (i_ < other.i_) return -1;
    return i_ > other.i_ ? 1 : 0;
  }
  const double a = as_double();
  const double b = other.as_double();
  if (a < b) return -1;
  return a > b ? 1 : 0;
}

std::uint64_t Value::hash() const {
  // FNV-1a over a type-tagged byte representation; doubles equal to an
  // integer hash differently, so mixed-type hash joins normalize first
  // (the planner only builds equi-joins over same-typed columns).
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const std::uint8_t tag = static_cast<std::uint8_t>(type_);
  mix(&tag, 1);
  switch (type_) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      mix(&i_, sizeof i_);
      break;
    case ValueType::kDouble: {
      const double d = d_;
      mix(&d, sizeof d);
      break;
    }
    case ValueType::kString:
      mix(s_.data(), s_.size());
      break;
  }
  return h;
}

std::string Value::to_string() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(i_);
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.4f", d_);
      return buf;
    }
    case ValueType::kString:
      return s_;
  }
  return "?";
}

// Howard Hinnant's civil-days algorithm.
std::int64_t date_from_ymd(int year, int month, int day) {
  year -= month <= 2;
  const int era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy =
      (153 * (static_cast<unsigned>(month) + (month > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(day) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097LL + static_cast<std::int64_t>(doe) - 719468;
}

void ymd_from_date(std::int64_t days, int& year, int& month, int& day) {
  days += 719468;
  const std::int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(days - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  year = static_cast<int>(y + (month <= 2));
}

std::int64_t parse_date(const std::string& text) {
  int y = 0;
  int m = 0;
  int d = 0;
  STC_REQUIRE_MSG(std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) == 3,
                  "malformed date literal");
  STC_REQUIRE(m >= 1 && m <= 12 && d >= 1 && d <= 31);
  return date_from_ymd(y, m, d);
}

std::string format_date(std::int64_t days) {
  int y = 0;
  int m = 0;
  int d = 0;
  ymd_from_date(days, y, m, d);
  // Room for the widest output: three 11-character ints ("-2147483648"),
  // two dashes and the terminator.
  char buf[3 * 11 + 2 + 1];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", y, m, d);
  return buf;
}

int year_of(std::int64_t days) {
  int y = 0;
  int m = 0;
  int d = 0;
  ymd_from_date(days, y, m, d);
  return y;
}

}  // namespace stc::db
