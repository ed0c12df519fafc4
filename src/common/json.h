// The one JSON writer: round-trip-exact numbers, quoted strings and an
// ordered-key object emitter (two-space indent, fixed field order).
// Sweep sinks, shard files, perf summaries, metrics snapshots and span
// timelines all format through these helpers; sweep/shard.cc holds the
// only reader.
#ifndef STAGEDCMP_COMMON_JSON_H_
#define STAGEDCMP_COMMON_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

namespace stagedcmp {

/// Round-trip-exact double formatting; the %.17g form is stable across
/// runs and thread counts because the underlying bits are. Non-finite
/// values have no JSON spelling and become null.
inline std::string JsonDbl(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// Minimal ordered-key JSON object writer: opens on construction, one
/// field per line at `indent + 2`, closes on Close().
class JsonObj {
 public:
  JsonObj(std::ostream& os, int indent) : os_(os), indent_(indent) {
    os_ << "{";
  }
  void Field(const std::string& key, const std::string& raw_value) {
    os_ << (first_ ? "\n" : ",\n") << Pad(indent_ + 2) << JsonQuote(key)
        << ": " << raw_value;
    first_ = false;
  }
  void Str(const std::string& key, const std::string& v) {
    Field(key, JsonQuote(v));
  }
  void Num(const std::string& key, double v) { Field(key, JsonDbl(v)); }
  void Int(const std::string& key, uint64_t v) {
    Field(key, std::to_string(v));
  }
  void Bool(const std::string& key, bool v) {
    Field(key, v ? "true" : "false");
  }
  void Close() { os_ << "\n" << Pad(indent_) << "}"; }

  static std::string Pad(int n) {
    return std::string(static_cast<size_t>(n), ' ');
  }

 private:
  std::ostream& os_;
  int indent_;
  bool first_ = true;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_JSON_H_
