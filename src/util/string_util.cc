#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace ssql {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

namespace {

// Recursive LIKE matcher over the remaining value/pattern suffixes.
bool LikeMatchImpl(std::string_view v, std::string_view p) {
  size_t vi = 0;
  size_t pi = 0;
  while (pi < p.size()) {
    char pc = p[pi];
    if (pc == '%') {
      // Collapse consecutive '%'.
      while (pi < p.size() && p[pi] == '%') ++pi;
      if (pi == p.size()) return true;  // trailing % matches everything
      for (size_t k = vi; k <= v.size(); ++k) {
        if (LikeMatchImpl(v.substr(k), p.substr(pi))) return true;
      }
      return false;
    }
    if (vi >= v.size()) return false;
    if (pc == '_') {
      ++vi;
      ++pi;
    } else if (pc == '\\' && pi + 1 < p.size()) {
      if (v[vi] != p[pi + 1]) return false;
      ++vi;
      pi += 2;
    } else {
      if (v[vi] != pc) return false;
      ++vi;
      ++pi;
    }
  }
  return vi == v.size();
}

}  // namespace

bool LikeMatch(std::string_view value, std::string_view pattern) {
  return LikeMatchImpl(value, pattern);
}

uint64_t HashBytes(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  // from_chars accepts a subset of strtoll's syntax (no leading space, no
  // '+') with the same result; anything else takes the strtoll path.
  int64_t fast = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), fast);
  if (ec == std::errc() && ptr == s.data() + s.size()) {
    *out = fast;
    return true;
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  // Both parsers round correctly, so a normal from_chars result, or a zero
  // spelled without a nonzero digit, is what strtod returns. Subnormals,
  // infinities, NaN and strtod-only syntax ('+', hex, leading space) take
  // the strtod path, which also owns the ERANGE verdict.
  double fast = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), fast);
  if (ec == std::errc() && ptr == s.data() + s.size() &&
      (std::isnormal(fast) ||
       (fast == 0 && s.find_first_of("123456789") == s.npos))) {
    *out = fast;
    return true;
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::string EscapeForDisplay(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\'':
        out += "\\'";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace ssql
