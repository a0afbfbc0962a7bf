// zen_bench — the repository benchmark runner.
//
//   zen_bench --workload <cold-512|reprompt-256|volume-wire>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed, sets the system up (timed,
// several times), drives it for the given seconds, checks every output,
// and prints on stdout an environment line and, last, one JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer metrics (obs spans on, layers timed one by one).
// Human-readable detail goes to stderr.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/quant.hpp"

namespace {

using namespace zbench;

int usage() {
  std::fprintf(stderr,
               "usage: zen_bench --workload <cold-512|reprompt-256|volume-wire> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string environment_line(const Options& opt, const Result& r) {
  std::ostringstream os;
  os << "{\"environment\": {"
     << "\"workload\": " << json_string(opt.workload)
     << ", \"seed\": " << opt.seed
     << ", \"seconds\": " << json_number(opt.seconds)
     << ", \"trace_pass\": " << (opt.trace ? "true" : "false")
     << ", \"cpu_features\": " << json_string(tensor::cpu_feature_string())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"kernel_backend\": " << json_string(tensor::backend_name())
     << ", \"precision\": " << json_string(tensor::quant::precision_name())
     << ", \"build_type\": " << json_string(ZBENCH_BUILD_TYPE)
     << ", \"git_sha\": " << json_string(env_or("ZBENCH_GIT_SHA", "none"))
     << ", \"source_digest\": " << json_string(env_or("ZBENCH_SOURCE_DIGEST", "none"))
     << ", \"zenesis_trace\": " << json_string(env_or("ZENESIS_TRACE", "unset"));
  for (const auto& [key, value] : r.info) {
    os << ", " << json_string(key) << ": " << json_number(value);
  }
  os << "}}";
  return os.str();
}

std::string result_line(const Result& r) {
  std::ostringstream os;
  const bool correct = r.problems.empty() && r.failed == 0;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !(opt.seconds > 0.0)) return usage();

  Result (*run)(const Options&) = nullptr;
  if (opt.workload == "cold-512") run = run_cold_512;
  if (opt.workload == "reprompt-256") run = run_reprompt_256;
  if (opt.workload == "volume-wire") run = run_volume_wire;
  if (run == nullptr) return usage();

  // End-to-end numbers are defined with tracing off; an environment that
  // turns it on would silently measure something else.
  if (!opt.trace && obs::enabled()) {
    std::fprintf(stderr,
                 "zen_bench: tracing is enabled (ZENESIS_TRACE); the untraced "
                 "pass refuses to run\n");
    return 3;
  }
  obs::set_enabled(false);

  opt.work_dir = (std::filesystem::path(".bench_work") /
                  (opt.workload + "-" + std::to_string(opt.seed) + "-" +
                   std::to_string(::getpid())))
                     .string();
  Result result;
  try {
    result = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zen_bench: %s failed: %s\n", opt.workload.c_str(), e.what());
    std::filesystem::remove_all(opt.work_dir);
    return 1;
  }
  std::filesystem::remove_all(opt.work_dir);

  for (const auto& p : result.problems) {
    std::fprintf(stderr, "zen_bench: CHECK FAILED: %s\n", p.c_str());
  }
  for (const auto& [name, m] : result.metrics) {
    std::fprintf(stderr, "  %-30s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n%s\n", environment_line(opt, result).c_str(),
              result_line(result).c_str());
  return 0;
}
