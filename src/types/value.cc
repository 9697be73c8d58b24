#include "types/value.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "util/string_util.h"

namespace ssql {

Value Value::Array(std::vector<Value> elements) {
  Value v;
  auto data = std::make_shared<ArrayData>();
  data->elements = std::move(elements);
  v.v_ = std::move(data);
  return v;
}

Value Value::Struct(std::vector<Value> fields) {
  Value v;
  auto data = std::make_shared<StructData>();
  data->fields = std::move(fields);
  v.v_ = std::move(data);
  return v;
}

Value Value::Map(std::vector<std::pair<Value, Value>> entries) {
  Value v;
  auto data = std::make_shared<MapData>();
  data->entries = std::move(entries);
  v.v_ = std::move(data);
  return v;
}

Value Value::Object(std::shared_ptr<void> ptr, const UserDefinedType* udt) {
  Value v;
  auto data = std::make_shared<ObjectData>();
  data->ptr = std::move(ptr);
  data->udt = udt;
  v.v_ = std::move(data);
  return v;
}

TypeId Value::type_id() const {
  switch (v_.index()) {
    case 0:
      return TypeId::kNull;
    case 1:
      return TypeId::kBoolean;
    case 2:
      return TypeId::kInt32;
    case 3:
      return TypeId::kInt64;
    case 4:
      return TypeId::kDouble;
    case 5:
      return TypeId::kString;
    case 6:
      return TypeId::kDecimal;
    case 7:
      return TypeId::kDate;
    case 8:
      return TypeId::kTimestamp;
    case 9:
      return TypeId::kArray;
    case 10:
      return TypeId::kStruct;
    case 11:
      return TypeId::kMap;
    default:
      return TypeId::kUserDefined;
  }
}

int64_t Value::AsInt64() const {
  switch (type_id()) {
    case TypeId::kInt32:
      return i32();
    case TypeId::kInt64:
      return i64();
    case TypeId::kDouble:
      return static_cast<int64_t>(f64());
    case TypeId::kBoolean:
      return bool_value() ? 1 : 0;
    case TypeId::kDecimal:
      return decimal().ToInt64();
    case TypeId::kDate:
      return date().days;
    case TypeId::kTimestamp:
      return timestamp().micros;
    default:
      return 0;
  }
}

double Value::AsDouble() const {
  switch (type_id()) {
    case TypeId::kInt32:
      return i32();
    case TypeId::kInt64:
      return static_cast<double>(i64());
    case TypeId::kDouble:
      return f64();
    case TypeId::kDecimal:
      return decimal().ToDouble();
    case TypeId::kBoolean:
      return bool_value() ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

bool Value::Equals(const Value& other) const {
  TypeId a = type_id();
  TypeId b = other.type_id();
  if (a == TypeId::kNull || b == TypeId::kNull) return a == b;
  // Numeric cross-width equality.
  bool a_num = a == TypeId::kInt32 || a == TypeId::kInt64 ||
               a == TypeId::kDouble || a == TypeId::kDecimal;
  bool b_num = b == TypeId::kInt32 || b == TypeId::kInt64 ||
               b == TypeId::kDouble || b == TypeId::kDecimal;
  if (a_num && b_num) return Compare(other) == 0;
  if (a != b) return false;
  switch (a) {
    case TypeId::kBoolean:
      return bool_value() == other.bool_value();
    case TypeId::kString:
      return str() == other.str();
    case TypeId::kDate:
      return date() == other.date();
    case TypeId::kTimestamp:
      return timestamp() == other.timestamp();
    case TypeId::kArray: {
      const auto& x = array().elements;
      const auto& y = other.array().elements;
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (!x[i].Equals(y[i])) return false;
      }
      return true;
    }
    case TypeId::kStruct: {
      const auto& x = struct_data().fields;
      const auto& y = other.struct_data().fields;
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (!x[i].Equals(y[i])) return false;
      }
      return true;
    }
    case TypeId::kMap: {
      const auto& x = map().entries;
      const auto& y = other.map().entries;
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (!x[i].first.Equals(y[i].first) || !x[i].second.Equals(y[i].second)) {
          return false;
        }
      }
      return true;
    }
    case TypeId::kUserDefined:
      return object().ptr == other.object().ptr;
    default:
      return false;
  }
}

int Value::Compare(const Value& other) const {
  TypeId a = type_id();
  TypeId b = other.type_id();
  if (a == TypeId::kNull && b == TypeId::kNull) return 0;
  if (a == TypeId::kNull) return -1;
  if (b == TypeId::kNull) return 1;

  bool a_num = a == TypeId::kInt32 || a == TypeId::kInt64 ||
               a == TypeId::kDouble || a == TypeId::kDecimal;
  bool b_num = b == TypeId::kInt32 || b == TypeId::kInt64 ||
               b == TypeId::kDouble || b == TypeId::kDecimal;
  if (a_num && b_num) {
    if (a == TypeId::kDouble || b == TypeId::kDouble) {
      return CompareDoubles(AsDouble(), other.AsDouble());
    }
    if (a == TypeId::kDecimal || b == TypeId::kDecimal) {
      auto exact = [](const Value& v) {
        return v.type_id() == TypeId::kDecimal
                   ? v.decimal()
                   : Decimal(v.AsInt64(), Decimal::kMaxLongDigits, 0);
      };
      return exact(*this).Compare(exact(other));
    }
    int64_t x = AsInt64();
    int64_t y = other.AsInt64();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }

  switch (a) {
    case TypeId::kBoolean: {
      int x = bool_value() ? 1 : 0;
      int y = other.bool_value() ? 1 : 0;
      return x - y;
    }
    case TypeId::kString: {
      int c = str().compare(other.str());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeId::kDate: {
      int32_t x = date().days, y = other.date().days;
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case TypeId::kTimestamp: {
      int64_t x = timestamp().micros, y = other.timestamp().micros;
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default:
      return 0;  // complex types are not ordered
  }
}

namespace {

/// Hashes a double as Equals compares it: an integral value like the
/// integer it equals (so -0.0 like 0), and every NaN alike, whatever its
/// sign and payload bits. The range check keeps the cast defined.
uint64_t HashDouble(double d) {
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  if (d >= -0x1p63 && d < 0x1p63) {
    const auto as_int = static_cast<int64_t>(d);
    if (static_cast<double>(as_int) == d) {
      return HashBytes(&as_int, sizeof(as_int));
    }
  }
  return HashBytes(&d, sizeof(d));
}

}  // namespace

uint64_t Value::Hash() const {
  switch (type_id()) {
    case TypeId::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case TypeId::kBoolean: {
      uint64_t v = bool_value() ? 1 : 0;
      return HashBytes(&v, sizeof(v));
    }
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kTimestamp: {
      int64_t v = AsInt64();
      return HashBytes(&v, sizeof(v));
    }
    case TypeId::kDouble:
      return HashDouble(f64());
    case TypeId::kDecimal:
      return HashDouble(decimal().ToDouble());
    case TypeId::kString:
      return HashBytes(str().data(), str().size());
    case TypeId::kArray: {
      uint64_t h = 17;
      for (const auto& e : array().elements) h = h * 31 + e.Hash();
      return h;
    }
    case TypeId::kStruct: {
      uint64_t h = 19;
      for (const auto& f : struct_data().fields) h = h * 31 + f.Hash();
      return h;
    }
    case TypeId::kMap: {
      uint64_t h = 23;
      for (const auto& [k, v] : map().entries) {
        h = h * 31 + k.Hash();
        h = h * 31 + v.Hash();
      }
      return h;
    }
    default:
      return reinterpret_cast<uintptr_t>(object().ptr.get());
  }
}

std::string Value::ToString() const {
  switch (type_id()) {
    case TypeId::kNull:
      return "null";
    case TypeId::kBoolean:
      return bool_value() ? "true" : "false";
    case TypeId::kInt32:
      return std::to_string(i32());
    case TypeId::kInt64:
      return std::to_string(i64());
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", f64());
      return buf;
    }
    case TypeId::kString:
      return str();
    case TypeId::kDecimal:
      return decimal().ToString();
    case TypeId::kDate:
      return FormatDate(date());
    case TypeId::kTimestamp:
      return std::to_string(timestamp().micros) + "us";
    case TypeId::kArray: {
      std::string s = "[";
      const auto& elems = array().elements;
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) s += ",";
        s += elems[i].ToString();
      }
      return s + "]";
    }
    case TypeId::kStruct: {
      std::string s = "{";
      const auto& fs = struct_data().fields;
      for (size_t i = 0; i < fs.size(); ++i) {
        if (i > 0) s += ",";
        s += fs[i].ToString();
      }
      return s + "}";
    }
    case TypeId::kMap: {
      std::string s = "{";
      const auto& es = map().entries;
      for (size_t i = 0; i < es.size(); ++i) {
        if (i > 0) s += ",";
        s += es[i].first.ToString() + "->" + es[i].second.ToString();
      }
      return s + "}";
    }
    default:
      return "<object>";
  }
}

namespace {

bool IsLeapYear(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

const int kDaysInMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

/// Days from 1970-01-01 of a valid civil date (Howard Hinnant's algorithm).
bool CivilDays(int y, int m, int d, DateValue* out) {
  if (m < 1 || m > 12 || d < 1) return false;
  int dim = kDaysInMonth[m - 1] + ((m == 2 && IsLeapYear(y)) ? 1 : 0);
  if (d > dim) return false;
  int yy = y - (m <= 2 ? 1 : 0);
  int era = (yy >= 0 ? yy : yy - 399) / 400;
  int yoe = yy - era * 400;
  int doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  int doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  out->days = era * 146097 + doe - 719468;
  return true;
}

/// The value of the `n` ASCII digits at `p`, or -1 if one is not a digit.
int Digits(const char* p, int n) {
  int v = 0;
  for (int k = 0; k < n; ++k) {
    if (p[k] < '0' || p[k] > '9') return -1;
    v = v * 10 + (p[k] - '0');
  }
  return v;
}

constexpr int64_t kMicrosPerDay = 86400LL * 1000000LL;

/// "YYYY-MM-DD[ HH:MM[:SS[.f]]]" with a whole date, H < 24, M < 60,
/// S < 60 and one to six fraction digits (kept to the microsecond); any
/// other text fails.
bool ParseTimestampText(std::string_view s, int64_t* micros) {
  const size_t space = s.find(' ');
  DateValue d;
  if (!ParseDate(s.substr(0, space), &d)) return false;
  *micros = static_cast<int64_t>(d.days) * kMicrosPerDay;
  if (space == std::string_view::npos) return true;
  const std::string_view t = s.substr(space + 1);
  auto field = [&](size_t at, int limit) {
    const int v = t.size() >= at + 2 ? Digits(t.data() + at, 2) : -1;
    return v < limit ? v : -1;
  };
  const int h = field(0, 24);
  const int m = t.size() > 2 && t[2] == ':' ? field(3, 60) : -1;
  if (h < 0 || m < 0) return false;
  int sec = 0;
  int64_t frac = 0;
  if (t.size() > 5) {
    sec = t[5] == ':' ? field(6, 60) : -1;
    if (sec < 0) return false;
    if (t.size() > 8) {
      const size_t digits = t.size() - 9;
      if (t[8] != '.' || digits < 1 || digits > 6) return false;
      const int f = Digits(t.data() + 9, static_cast<int>(digits));
      if (f < 0) return false;
      frac = f;
      for (size_t k = digits; k < 6; ++k) frac *= 10;
    }
  }
  *micros += ((h * 3600LL) + (m * 60LL) + sec) * 1000000LL + frac;
  return true;
}

}  // namespace

bool ParseDate(std::string_view text, DateValue* out) {
  if (text.size() == 10 && text[4] == '-' && text[7] == '-') {
    const int y = Digits(text.data(), 4);
    const int m = Digits(text.data() + 5, 2);
    const int d = Digits(text.data() + 8, 2);
    if (y >= 0 && m >= 0 && d >= 0) return CivilDays(y, m, d, out);
  }
  // Other spellings ("2020-1-5", signed years) go through sscanf; %n makes
  // it consume the whole text.
  const std::string buf(text);
  int y, m, d;
  int consumed = -1;
  if (std::sscanf(buf.c_str(), "%d-%d-%d%n", &y, &m, &d, &consumed) != 3 ||
      consumed != static_cast<int>(buf.size())) {
    return false;
  }
  return CivilDays(y, m, d, out);
}

bool ParseTextAs(std::string_view text, const DataType& type, int64_t* i,
                 double* d) {
  if (type.id() == TypeId::kBoolean) {
    if (EqualsIgnoreCase(text, "true")) {
      *i = 1;
      return true;
    }
    if (EqualsIgnoreCase(text, "false")) {
      *i = 0;
      return true;
    }
    return false;
  }
  const std::string_view t = Trim(text);
  switch (type.id()) {
    case TypeId::kInt32:
      return ParseInt64(t, i) && *i >= INT32_MIN && *i <= INT32_MAX;
    case TypeId::kInt64:
      return ParseInt64(t, i);
    case TypeId::kDouble:
      return ParseDouble(t, d);
    case TypeId::kDecimal: {
      Decimal dec;
      if (!Decimal::Parse(t, &dec)) return false;
      const auto& dt = static_cast<const DecimalType&>(type);
      *i = dec.Rescale(dt.precision(), dt.scale()).unscaled();
      return true;
    }
    case TypeId::kDate: {
      DateValue date;
      if (!ParseDate(t, &date)) return false;
      *i = date.days;
      return true;
    }
    case TypeId::kTimestamp:
      return ParseTimestampText(t, i);
    default:
      return false;
  }
}

std::string FormatDate(DateValue dv) {
  int64_t z = dv.days + 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = yoe + era * 400;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  int64_t d = doy - (153 * mp + 2) / 5 + 1;
  int64_t m = mp + (mp < 10 ? 3 : -9);
  y += (m <= 2 ? 1 : 0);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", static_cast<int>(y),
                static_cast<int>(m), static_cast<int>(d));
  return buf;
}

}  // namespace ssql
