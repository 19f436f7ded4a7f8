// Tests of the harness's argument parsing (perfbench/args.h). Built and
// run by `python3 perfbench/run.py --self-test`, or through CTest in the
// benchmark's build directory. Exits non-zero on the first failure.
#include <cstdio>
#include <string>
#include <vector>

#include "args.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

perfbench::Args Parse(const std::vector<std::string>& tokens,
                      std::string* error) {
  perfbench::Args args;
  *error = perfbench::ParseArgs(tokens, &args);
  return args;
}

}  // namespace

int main() {
  std::string err;

  // The four flags every run passes.
  perfbench::Args a = Parse({"--workload", "incr-machinery", "--seed", "0",
                             "--seconds", "1", "--trace", "1"},
                            &err);
  Expect(err.empty(), "run flags parse");
  Expect(a.workload == "incr-machinery", "workload name kept");
  Expect(a.seed == 0, "explicit seed 0 honoured");
  Expect(a.seconds == 1, "explicit seconds 1 honoured");
  Expect(a.trace, "trace 1 parsed");

  // Explicit 0 and 1 body bytes are values, not "unset".
  a = Parse({"--workload", "w", "--body-bytes", "0"}, &err);
  Expect(err.empty() && a.body_bytes.has_value() && *a.body_bytes == 0,
         "body-bytes 0 honoured");
  a = Parse({"--workload", "w", "--body-bytes", "1"}, &err);
  Expect(err.empty() && a.body_bytes.has_value() && *a.body_bytes == 1,
         "body-bytes 1 honoured");
  a = Parse({"--workload", "w"}, &err);
  Expect(err.empty() && !a.body_bytes.has_value() && !a.shards.has_value() &&
             !a.scale.has_value() && !a.days.has_value() &&
             !a.capacity.has_value(),
         "absent sizes stay unset");

  // Every other size honours 1, and rejects 0 (meaningless there)
  // instead of silently substituting a default.
  a = Parse({"--workload", "w", "--shards", "1", "--scale", "1", "--days",
             "1", "--capacity", "1"},
            &err);
  Expect(err.empty() && *a.shards == 1 && *a.scale == 1.0 &&
             *a.days == 1.0 && *a.capacity == 1,
         "size 1 honoured everywhere");
  for (const char* flag :
       {"--shards", "--scale", "--days", "--capacity", "--seconds"}) {
    Parse({"--workload", "w", flag, "0"}, &err);
    Expect(!err.empty(), (std::string(flag) + " 0 rejected").c_str());
  }
  a = Parse({"--workload", "w", "--scale", "0.25"}, &err);
  Expect(err.empty() && *a.scale == 0.25, "fractional scale parsed");

  // Malformed values are errors, never partial parses.
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{
           {"--workload", "w", "--body-bytes", "16k"},
           {"--workload", "w", "--body-bytes", "-1"},
           {"--workload", "w", "--body-bytes", ""},
           {"--workload", "w", "--seed", "1.5"},
           {"--workload", "w", "--seed", "+3"},
           {"--workload", "w", "--shards", "2x"},
           {"--workload", "w", "--scale", "nan"},
           {"--workload", "w", "--scale", "inf"},
           {"--workload", "w", "--days", "1e999"},
           {"--workload", "w", "--trace", "2"},
           {"--workload", "w", "--trace", "yes"},
           {"--workload", "w", "--seconds"},
           {"--workload", "w", "--bogus", "1"},
           {"--workload", "w", "stray"},
           {"--seed", "3"},
       }) {
    Parse(bad, &err);
    std::string what = "rejected:";
    for (const std::string& t : bad) what += " '" + t + "'";
    Expect(!err.empty(), what.c_str());
  }

  if (failures == 0) std::printf("perfbench args: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
