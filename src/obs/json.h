// The JSON string and number formatting every JSON writer in the project
// shares: campaign reports, metrics snapshots, the snapshot stream and trace
// files.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

namespace cn::obs {

/// `s` escaped for the inside of a JSON string literal (RFC 8259 §7): `"`
/// and `\` get a backslash, `\n` stays `\n`, and every other byte below
/// 0x20 becomes `\u00XX`. Bytes from 0x20 up pass through, so UTF-8 text is
/// unchanged.
inline std::string json_escaped(const std::string& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (u < 0x20) {
      out += "\\u00";
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// A number as every report prints it: %.6g. JSON has no NaN or infinity,
/// so a non-finite value is written as `null`.
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace cn::obs
