// Command-line parsing for the benchmark harness.
//
// Every numeric flag is parsed strictly: the whole token must be a
// number in range, and an explicit value is always honoured — `0` and
// `1` included (`--body-bytes 0` runs bodies with no filler, it never
// falls back to a default). A size flag that is absent leaves the
// workload's own default in place, which is what the std::optional
// fields record.
#ifndef WEBEVO_PERFBENCH_ARGS_H_
#define WEBEVO_PERFBENCH_ARGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Overrides of the workload's sizes; unset keeps its default.
  std::optional<double> scale;
  std::optional<double> days;
  std::optional<int> shards;
  std::optional<uint32_t> body_bytes;
  std::optional<uint64_t> capacity;
  /// Directory for checkpoint files (deleted when the run ends). The
  /// traced run writes its trace beside it, in the parent directory.
  std::string ckpt_dir = ".bench_build/ckpt";
};

/// Parses a whole token as an unsigned integer in [lo, hi].
inline bool ParseUint(const std::string& s, uint64_t lo, uint64_t hi,
                      uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (v < lo || v > hi) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// Parses a whole token as a finite double in (0, hi].
inline bool ParsePositive(const std::string& s, double hi, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v) || !(v > 0.0) || v > hi) return false;
  *out = v;
  return true;
}

/// Parses argv-style tokens (without the program name). Returns an
/// empty string on success, else a message naming the bad token.
inline std::string ParseArgs(const std::vector<std::string>& tokens,
                             Args* args) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& flag = tokens[i];
    if (flag.rfind("--", 0) != 0) return "unexpected argument '" + flag + "'";
    if (i + 1 >= tokens.size()) return flag + " requires a value";
    const std::string& v = tokens[++i];
    uint64_t u = 0;
    double d = 0.0;
    if (flag == "--workload") {
      if (v.empty()) return "--workload requires a name";
      args->workload = v;
    } else if (flag == "--seed") {
      if (!ParseUint(v, 0, UINT64_MAX, &u)) return "bad --seed '" + v + "'";
      args->seed = u;
    } else if (flag == "--seconds") {
      if (!ParseUint(v, 1, 3600, &u)) return "bad --seconds '" + v + "'";
      args->seconds = static_cast<int>(u);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return "--trace takes 0 or 1, not '" + v + "'";
      args->trace = v == "1";
    } else if (flag == "--scale") {
      if (!ParsePositive(v, 64.0, &d)) return "bad --scale '" + v + "'";
      args->scale = d;
    } else if (flag == "--days") {
      if (!ParsePositive(v, 3650.0, &d)) return "bad --days '" + v + "'";
      args->days = d;
    } else if (flag == "--shards") {
      if (!ParseUint(v, 1, 64, &u)) return "bad --shards '" + v + "'";
      args->shards = static_cast<int>(u);
    } else if (flag == "--body-bytes") {
      if (!ParseUint(v, 0, 1u << 24, &u)) {
        return "bad --body-bytes '" + v + "'";
      }
      args->body_bytes = static_cast<uint32_t>(u);
    } else if (flag == "--capacity") {
      if (!ParseUint(v, 1, 1u << 24, &u)) return "bad --capacity '" + v + "'";
      args->capacity = u;
    } else if (flag == "--ckpt-dir") {
      if (v.empty()) return "--ckpt-dir requires a path";
      args->ckpt_dir = v;
    } else {
      return "unknown flag '" + flag + "'";
    }
  }
  if (args->workload.empty()) return "--workload is required";
  return "";
}

}  // namespace perfbench

#endif  // WEBEVO_PERFBENCH_ARGS_H_
