// llbench: the llbackup benchmark program.
//
//   llbench --workload <oltp|oltp_backup|restore> --seed <n> --seconds <s>
//           --trace <0|1> [--out-dir <dir>] [--commit <id>]
//
// Prints report lines starting with '#', then one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/crc32c.h"
#include "io/latency_env.h"
#include "io/uring_env.h"
#include "workloads.h"

#ifndef LLBENCH_BUILD_TYPE
#define LLBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LLBENCH_CXX_FLAGS
#define LLBENCH_CXX_FLAGS "unknown"
#endif

namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#if defined(NDEBUG)
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ContextJson(const llbench::RunConfig& config,
                        const std::string& commit) {
  const llb::LatencyProfile ssd = llb::LatencyProfile::Ssd();
  std::string out = "{";
  out += "\"build_type\": " + JsonString(LLBENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": " + JsonString(LLBENCH_CXX_FLAGS);
  out += ", \"ndebug\": " + std::string(kNdebug ? "true" : "false");
  out += ", \"asan\": " + std::string(kAsan ? "true" : "false");
  out += ", \"tsan\": " + std::string(kTsan ? "true" : "false");
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"device\": " +
         JsonString("simulated: MemEnv behind LatencyEnv::Ssd (seek_us=" +
                    std::to_string(ssd.seek_us) +
                    ", sync_us=" + std::to_string(ssd.sync_us) +
                    ", bytes_per_us=" + std::to_string(ssd.bytes_per_us) +
                    ")");
  out += ", \"uring_available\": " +
         std::string(llb::UringAvailable() ? "true" : "false");
  out += ", \"crc32c_backend\": " + JsonString(llb::crc32c::Backend());
  out += ", \"workload\": " + JsonString(config.workload);
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"seconds\": " + JsonNumber(config.seconds);
  out += ", \"trace\": " + std::string(config.trace ? "true" : "false");
  out += ", \"commit\": " + JsonString(commit);
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: llbench --workload <oltp|oltp_backup|restore> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  llbench::RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& w : llbench::WorkloadNames()) {
    known = known || w == config.workload;
  }
  if (!have_workload || !known || !(config.seconds > 0)) return Usage();

  // A number from an unoptimised or instrumented build says nothing about
  // the engine; refuse to produce one.
  if (!kNdebug || kAsan || kTsan ||
      std::strcmp(LLBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr,
                 "llbench: refusing to report from a debug or sanitizer "
                 "build (build_type=%s ndebug=%d asan=%d tsan=%d)\n",
                 LLBENCH_BUILD_TYPE, kNdebug, kAsan, kTsan);
    return 3;
  }

  const std::string context = ContextJson(config, commit);
  llbench::RunResult result;
  try {
    result = llbench::RunWorkload(config);
  } catch (const llbench::BenchError& e) {
    std::fprintf(stderr, "llbench: %s\n", e.what());
    return 1;
  }

  std::string metrics = "{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const llbench::Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "llbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    if (i > 0) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  metrics += "}";
  const std::string line =
      std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + metrics + "}";

  std::string notes = "[";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    if (i > 0) notes += ", ";
    notes += JsonString(result.notes[i]);
  }
  notes += "]";
  if (!config.out_dir.empty()) {
    const std::string path = config.out_dir + "/result-" + config.workload +
                             "-seed" + std::to_string(config.seed) +
                             "-trace" + (config.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\"context\": " << context << ", \"notes\": " << notes
        << ", \"result\": " << line << "}\n";
  }

  std::printf("# context %s\n", context.c_str());
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
