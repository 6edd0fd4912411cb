// Shared infrastructure of the moaflat benchmark: options, clocks, sample
// statistics, the metric table, the in-memory span log of the traced run,
// and the per-run bookkeeping every workload fills in.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "kernel/exec_tracer.h"
#include "mil/interpreter.h"
#include "tpcd/generator.h"
#include "tpcd/loader.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory of this run (durable stores), inside the checkout.
  std::string workdir;
  /// Self-test hook: perturbs one expected answer after set-up, so the run
  /// must report correct=false.
  bool corrupt_expected = false;
};

// ------------------------------------------------------------ statistics

/// Linear-interpolation quantile (q in [0,1]) of an unsorted sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v);
double GeoMean(const std::vector<double>& v);
/// "p50 12.3 ms, p99 45.6 ms, tail p99.6 50.1 ms, n=2500": the median, the
/// p99, and the highest percentile with at least ten samples beyond it.
std::string DescribeLatency(const std::vector<double>& ms);

// ---------------------------------------------------------------- memory

/// Current resident set of the process, in MB.
double RssMb();
/// Peak resident set of the process so far, in MB.
double PeakRssMb();
/// Process CPU seconds (user + system) so far.
double CpuSeconds();
/// CPU time the hypervisor gave to other guests, summed over all CPUs
/// (/proc/stat "steal"), in seconds; 0 where the kernel does not report it.
double StealSeconds();

// --------------------------------------------------------------- metrics

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;
};

/// The end-to-end metrics, reported by every workload with --trace 0.
const std::vector<MetricDef>& EndToEndMetrics();
/// The per-layer metrics, reported by every workload with --trace 1.
/// A layer a workload does not exercise reads 0 there.
const std::vector<MetricDef>& PerLayerMetrics();
/// Kernel implementation names counted individually as kernel.impl.<name>;
/// any other implementation is counted as kernel.impl.unlisted.
const std::vector<std::string>& ListedImpls();

// ------------------------------------------------------------ span log

/// One traced call: which public entry point, when, under which parent
/// span, for which request (0 = not part of a request).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  uint64_t thread = 0;
};

/// The in-memory span log of a traced run; written out when the run ends.
/// A null log (untraced run) makes every ScopedSpan a no-op.
class SpanLog {
 public:
  SpanLog();
  int64_t Begin(const std::string& name, uint64_t request);
  void End(int64_t id);
  /// Self time per span name: duration minus the part covered by children.
  std::map<std::string, double> SelfMsByName() const;
  std::map<std::string, double> TotalMsByName() const;
  bool WriteJson(const std::string& path, const std::string& env_json) const;
  size_t size() const;

 private:
  int64_t NowNs() const;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, uint64_t request = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int64_t id_;
};

// ------------------------------------------------------------ run result

/// What a workload hands back to main: e2e and per-layer values, counts
/// of attempted and failed requests, and human-readable notes.
struct RunResult {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::map<std::string, std::string> env;

  void Fail(const std::string& why);
};

// ------------------------------------------------------------ kernel

/// Accumulates kernel time and dispatch counts from ExecTracer records or
/// from per-statement traces (whose `impl` joins the statement's
/// implementations with '+').
struct KernelLedger {
  std::map<std::string, double> bucket_ms;  // semijoin, select, ...
  std::map<std::string, double> impl_calls;
  std::set<std::string> unlisted;  // implementation names not in ListedImpls
  double calls = 0;

  void AddRecords(const std::vector<moaflat::kernel::TraceRecord>& recs);
  void AddStmts(const std::vector<moaflat::mil::StmtTrace>& stmts);
  /// Writes kernel.* metrics, each divided by `units` (passes or requests),
  /// and names the unlisted implementations in the run's environment.
  void Report(RunResult* out, double units) const;
};

/// The kernel bucket of an operator name ("semijoin", "select.>=", "[*]").
std::string KernelBucket(const std::string& op);

/// A generated and loaded TPC-D instance, with the two phase timings.
struct LoadedTpcd {
  moaflat::tpcd::TpcdData data;
  std::shared_ptr<moaflat::tpcd::TpcdInstance> inst;
  double generate_s = 0;
  double load_s = 0;
};

/// tpcd::Generate + tpcd::Load under spans; null inst (and a failure in
/// `result`) when loading fails.
LoadedTpcd GenerateAndLoad(double scale_factor, uint64_t seed, SpanLog* spans,
                           RunResult* result);

/// Per-workload entry points.
RunResult RunTpcdPower(const Options& opt, SpanLog* spans);
RunResult RunServiceMix(const Options& opt, SpanLog* spans);
RunResult RunDurableIngest(const Options& opt, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
