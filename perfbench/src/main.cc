// moaflat benchmark program: runs one named workload for a given seed and
// time budget, checks every answer, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the span log is written to
// <outdir>/traces/<workload>-seed<seed>.json.
//
//   perfbench --workload tpcd_power|service_mix|durable_ingest
//             --seed N --seconds S --trace 0|1 [--outdir DIR]
//   perfbench --self-test        (checks the service MIL texts)
//   perfbench --list-metrics     (prints the metric table as JSON)
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "texts.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string EnvJson(const std::map<std::string, std::string>& env) {
  std::string out = "{";
  for (const auto& [k, v] : env) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonString(v);
  }
  return out + "}";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tpcd_power|service_mix|durable_ingest "
               "--seed N --seconds S --trace 0|1 [--outdir DIR] "
               "[--corrupt-expected]\n       %s --self-test | --list-metrics\n",
               argv0, argv0);
  return 2;
}

int ListMetrics() {
  auto dump = [](const std::vector<MetricDef>& defs) {
    std::string out = "[";
    for (const MetricDef& d : defs) {
      if (out.size() > 1) out += ", ";
      out += "{\"name\": \"" + d.name + "\", \"unit\": \"" + d.unit +
             "\", \"better\": \"" + d.better + "\"}";
    }
    return out + "]";
  };
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
              dump(EndToEndMetrics()).c_str(), dump(PerLayerMetrics()).c_str());
  return 0;
}

int SelfTest() {
  using namespace moaflat;  // NOLINT
  const double sf = 0.01;
  tpcd::TpcdData data = tpcd::Generate(sf, 1);
  auto inst = tpcd::Load(data, sf);
  if (!inst.ok()) {
    std::printf("self-test: load failed\n");
    return 1;
  }
  RunResult r;
  CheckTexts(data, *inst, false, &r);
  for (const auto& p : r.problems) std::printf("self-test: FAIL %s\n", p.c_str());
  for (const auto& [k, v] : r.env) std::printf("self-test: %s: %s\n", k.c_str(), v.c_str());
  std::printf("self-test: texts %s\n", r.correct ? "ok" : "FAILED");
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Options opt;
  std::string outdir = ".bench_build";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--self-test") return SelfTest();
    if (a == "--list-metrics") return ListMetrics();
    if (a == "--corrupt-expected") {
      opt.corrupt_expected = true;
      continue;
    }
    const char* v = next();
    if (v == nullptr) return Usage(argv[0]);
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opt.seconds > 0;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--outdir") {
      outdir = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage(argv[0]);
  }
  RunResult (*run)(const Options&, SpanLog*) = nullptr;
  if (opt.workload == "tpcd_power") run = RunTpcdPower;
  if (opt.workload == "service_mix") run = RunServiceMix;
  if (opt.workload == "durable_ingest") run = RunDurableIngest;
  if (run == nullptr) return Usage(argv[0]);

  std::error_code ec;
  opt.workdir = outdir + "/work/" + opt.workload + "-" +
                std::to_string(getpid());
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  SpanLog log;
  const double steal0 = StealSeconds();
  const auto wall0 = Clock::now();
  RunResult result = run(opt, opt.trace ? &log : nullptr);
  char steal[64];
  // Other guests' share of the host's CPUs during the run: a run that saw
  // much of it measured a busy host, not the program.
  std::snprintf(steal, sizeof(steal), "%.2f s of %.2f s wall",
                StealSeconds() - steal0, SecondsSince(wall0));
  result.env["host_steal"] = steal;

  result.env["workload"] = opt.workload;
  result.env["seed"] = std::to_string(opt.seed);
  result.env["seconds"] = std::to_string(opt.seconds);
  result.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.env["block_cap"] = std::to_string(moaflat::ParallelBlockCap());
  result.env["build_type"] = PERFBENCH_BUILD_TYPE;
  result.env["data_dir_fs"] = FilesystemOf(opt.workdir);
  result.env["traced"] = opt.trace ? "1" : "0";
  const std::string env_json = EnvJson(result.env);
  std::filesystem::remove_all(opt.workdir, ec);

  if (opt.trace) {
    const std::string dir = outdir + "/traces";
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (log.WriteJson(path, env_json)) {
      std::printf("trace: %zu spans written to %s\n", log.size(), path.c_str());
      // The largest self times, so the run's output names where time went.
      std::vector<std::pair<double, std::string>> top;
      for (const auto& [name, ms] : log.SelfMsByName()) top.emplace_back(ms, name);
      std::sort(top.rbegin(), top.rend());
      for (size_t i = 0; i < top.size() && i < 8; ++i) {
        std::printf("  self %10.1f ms  %s\n", top[i].first, top[i].second.c_str());
      }
    } else {
      result.Fail("cannot write " + path);
    }
  }

  std::printf("env: %s\n", env_json.c_str());
  for (const std::string& p : result.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  if (result.failed > 0) result.correct = false;
  if (result.attempted == 0) result.Fail("no request completed");
  const double error_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n", error_rate,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  const auto& defs = opt.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::ostringstream metrics;
  metrics.precision(17);
  bool first = true;
  for (const MetricDef& d : defs) {
    auto it = result.metrics.find(d.name);
    double v = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      result.Fail(d.name + " is not a finite number");
      v = 0;
    }
    std::printf("%-36s %16.6f %s\n", d.name.c_str(), v, d.unit.c_str());
    metrics << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": " << v
            << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.str().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
