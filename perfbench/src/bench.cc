#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

// ------------------------------------------------------------ statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-12));
  return std::exp(s / static_cast<double>(v.size()));
}

std::string DescribeLatency(const std::vector<double>& ms) {
  char buf[200];
  const size_t n = ms.size();
  if (n == 0) return "n=0";
  // The highest percentile with at least ten samples beyond it.
  const double tail_q = n > 10 ? 1.0 - 10.0 / static_cast<double>(n) : 0.5;
  std::snprintf(buf, sizeof(buf),
                "p50 %.3f ms, p99 %.3f ms%s, tail p%.2f %.3f ms, n=%zu",
                Quantile(ms, 0.5), Quantile(ms, 0.99),
                n >= 1000 ? "" : " (fewer than 10 samples beyond)",
                100 * std::max(tail_q, 0.5), Quantile(ms, std::max(tail_q, 0.5)),
                n);
  return buf;
}

// ---------------------------------------------------------------- memory

double RssMb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1.0e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1.0e6;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double StealSeconds() {
  unsigned long long v[8] = {};
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
      v[7] = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// --------------------------------------------------------------- metrics

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"power_geomean_ms", "ms", "lower"},
      {"latency_p50_ms", "ms", "lower"},
      {"latency_p90_ms", "ms", "lower"},
      {"throughput_qps", "1/s", "higher"},
      {"rss_peak_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<std::string>& ListedImpls() {
  static const std::vector<std::string> impls = {
      "binsearch_select",         "scan_select",
      "scan_like_select",         "datavector_semijoin",
      "datavector_semijoin_cached", "sync_semijoin",
      "merge_semijoin",           "hash_semijoin",
      "hash_antisemijoin",        "hash_union",
      "merge_join",               "hash_join",
      "fetch_join",               "positional_fetch",
      "multiplex_synced",         "multiplex_synced_numeric",
      "multiplex_headjoin",       "hash_group",
      "sync_group_refine",        "hash_group_refine",
      "hash_unique",              "hash_head_unique",
      "hash_set_aggregate",       "run_set_aggregate",
      "sum",                      "count",
      "avg",                      "min",
      "max",                      "mark",
      "guarded_insert",           "partial_sort_topn",
      "stable_sort",              "nested_thetajoin",
      "sort_band_thetajoin",
  };
  return impls;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"client.latency_p99_ms", "ms", "lower"},
        {"tpcd.generate_s", "s", "lower"},
        {"tpcd.load_s", "s", "lower"},
        {"tpcd.load_bulk_s", "s", "lower"},
        {"tpcd.load_accel_s", "s", "lower"},
        {"tpcd.load_reorder_s", "s", "lower"},
        {"tpcd.warmup_pass_s", "s", "lower"},
        {"tpcd.q01_ms", "ms", "lower"},
        {"tpcd.q02_ms", "ms", "lower"},
        {"tpcd.q03_ms", "ms", "lower"},
        {"tpcd.q04_ms", "ms", "lower"},
        {"tpcd.q05_ms", "ms", "lower"},
        {"tpcd.q06_ms", "ms", "lower"},
        {"tpcd.q07_ms", "ms", "lower"},
        {"tpcd.q08_ms", "ms", "lower"},
        {"tpcd.q09_ms", "ms", "lower"},
        {"tpcd.q10_ms", "ms", "lower"},
        {"tpcd.q11_ms", "ms", "lower"},
        {"tpcd.q12_ms", "ms", "lower"},
        {"tpcd.q13_ms", "ms", "lower"},
        {"tpcd.q14_ms", "ms", "lower"},
        {"tpcd.q15_ms", "ms", "lower"},
        {"tpcd.stream_s", "s", "lower"},
        {"relational.geomean_ms", "ms", "lower"},
        {"relational.qppd", "ratio", "higher"},
        {"moa.translate_ms", "ms", "lower"},
        {"mil.stmt_ms", "ms", "lower"},
        {"mil.overhead_ms", "ms", "lower"},
        {"mil.parse_ms.short", "ms", "lower"},
        {"mil.parse_ms.medium", "ms", "lower"},
        {"mil.parse_ms.long", "ms", "lower"},
        {"mil.analyze_ms.short", "ms", "lower"},
        {"mil.analyze_ms.medium", "ms", "lower"},
        {"mil.analyze_ms.long", "ms", "lower"},
        {"kernel.semijoin_ms", "ms", "lower"},
        {"kernel.select_ms", "ms", "lower"},
        {"kernel.join_ms", "ms", "lower"},
        {"kernel.multiplex_ms", "ms", "lower"},
        {"kernel.aggregate_ms", "ms", "lower"},
        {"kernel.group_ms", "ms", "lower"},
        {"kernel.other_ms", "ms", "lower"},
        {"kernel.calls", "count", "lower"},
    };
    for (const std::string& impl : ListedImpls()) {
      d.push_back({"kernel.impl." + impl, "count", "lower"});
    }
    d.push_back({"kernel.impl.unlisted", "count", "lower"});
    const std::vector<MetricDef> rest = {
        {"storage.faults", "count", "lower"},
        {"storage.faults.short", "count", "lower"},
        {"storage.faults.medium", "count", "lower"},
        {"storage.faults.long", "count", "lower"},
        {"storage.intermediate_mb", "MB", "lower"},
        {"storage.peak_mb", "MB", "lower"},
        {"storage.wal_bytes_per_commit", "B", "lower"},
        {"storage.write_amp", "ratio", "lower"},
        {"storage.checkpoint_ms", "ms", "lower"},
        {"storage.checkpoint_mb", "MB", "lower"},
        {"storage.wal_records_replayed", "count", "lower"},
        {"storage.commit_p50_ms", "ms", "lower"},
        {"storage.commit_p99_ms", "ms", "lower"},
        {"storage.commits_per_s", "1/s", "higher"},
        {"storage.recovery_s", "s", "lower"},
        {"bat.rss_growth_mb_per_pass", "MB", "lower"},
        {"common.cpu_util", "ratio", "higher"},
        {"common.parallel_speedup", "ratio", "higher"},
        {"service.submit_ms", "ms", "lower"},
        {"service.wait_ms", "ms", "lower"},
        {"service.run_ms", "ms", "lower"},
        {"service.queue_ms", "ms", "lower"},
        {"service.queued_ratio", "ratio", "lower"},
        {"service.cost_over_faults", "ratio", "lower"},
        {"service.commit_wait_ms", "ms", "lower"},
        {"service.short_p99_ms", "ms", "lower"},
        {"wire.ping_us", "us", "lower"},
        {"wire.result_ms", "ms", "lower"},
        {"trace.overhead.setup_s", "s", "lower"},
        {"trace.overhead.power_geomean_ms", "ms", "lower"},
        {"trace.overhead.latency_p50_ms", "ms", "lower"},
        {"trace.overhead.latency_p90_ms", "ms", "lower"},
        {"trace.overhead.throughput_qps", "1/s", "higher"},
        {"trace.overhead.rss_peak_mb", "MB", "lower"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

// ------------------------------------------------------------ span log

namespace {
thread_local std::vector<int64_t> tl_open_spans;

uint64_t ThreadTag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff;
}
}  // namespace

SpanLog::SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int64_t SpanLog::Begin(const std::string& name, uint64_t request) {
  Span s;
  s.name = name;
  s.parent = tl_open_spans.empty() ? -1 : tl_open_spans.back();
  s.request = request;
  s.thread = ThreadTag();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
  }
  tl_open_spans.push_back(id);
  return id;
}

void SpanLog::End(int64_t id) {
  const int64_t now = NowNs();
  if (!tl_open_spans.empty() && tl_open_spans.back() == id) {
    tl_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanLog::TotalMsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return out;
}

std::map<std::string, double> SpanLog::SelfMsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Length of the union of the children's intervals, clipped to the span.
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& env_json) const {
  const auto self = SelfMsByName();
  const auto total = TotalMsByName();
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"env\": " << env_json << ",\n\"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : self) {
    f << (first ? "" : ", ") << "\"" << name << "\": " << ms;
    first = false;
  }
  f << "},\n\"total_ms\": {";
  first = true;
  for (const auto& [name, ms] : total) {
    f << (first ? "" : ", ") << "\"" << name << "\": " << ms;
    first = false;
  }
  f << "},\n\"spans\": [\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"start_us\": " << s.start_ns / 1000.0
      << ", \"end_us\": " << s.end_ns / 1000.0 << ", \"parent\": " << s.parent
      << ", \"request\": " << s.request << ", \"thread\": " << s.thread << "}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

// ------------------------------------------------------------ kernel

std::string KernelBucket(const std::string& op) {
  if (op == "semijoin") return "semijoin";
  if (op == "select" || op.rfind("select.", 0) == 0) return "select";
  if (op == "join" || op == "thetajoin" || op == "fetch") return "join";
  if (op == "multiplex" || (!op.empty() && op.front() == '[')) {
    return "multiplex";
  }
  if (op == "aggregate" || op == "set_aggregate" || op == "count_distinct" ||
      op == "histogram" || (!op.empty() && op.front() == '{') ||
      op == "sum" || op == "count" || op == "avg" || op == "min" ||
      op == "max") {
    return "aggregate";
  }
  if (op == "group" || op == "unique" || op == "hunique") return "group";
  return "other";
}

namespace {
/// "datavector_semijoin(cached)" -> "datavector_semijoin_cached": metric
/// names allow letters, digits, '_', '.' and '-' only.
std::string MetricSafe(const std::string& impl) {
  std::string out;
  for (char c : impl) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '.' || c == '-';
    out += ok ? c : '_';
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

void CountImpl(KernelLedger* k, const std::string& raw) {
  const std::string impl = MetricSafe(raw);
  const auto& listed = ListedImpls();
  if (std::find(listed.begin(), listed.end(), impl) != listed.end()) {
    k->impl_calls[impl] += 1;
  } else {
    k->impl_calls["unlisted"] += 1;
    k->unlisted.insert(impl);
  }
}
}  // namespace

void KernelLedger::AddRecords(
    const std::vector<moaflat::kernel::TraceRecord>& recs) {
  for (const auto& r : recs) {
    bucket_ms[KernelBucket(r.op)] += static_cast<double>(r.elapsed_us) / 1e3;
    CountImpl(this, r.impl);
    calls += 1;
  }
}

void KernelLedger::AddStmts(const std::vector<moaflat::mil::StmtTrace>& stmts) {
  for (const auto& s : stmts) {
    // "var := op(args)": the operator sits between ":= " and "(".
    std::string op;
    const size_t assign = s.text.find(":= ");
    if (assign != std::string::npos) {
      const size_t start = assign + 3;
      size_t paren = s.text.find('(', start);
      if (!s.text.empty() && s.text[start] == '[') {
        paren = s.text.find(']', start) + 1;
      } else if (!s.text.empty() && s.text[start] == '{') {
        paren = s.text.find('}', start) + 1;
      }
      op = s.text.substr(start, paren - start);
    }
    bucket_ms[KernelBucket(op)] += static_cast<double>(s.elapsed_us) / 1e3;
    size_t pos = 0;
    while (pos < s.impl.size()) {
      size_t plus = s.impl.find('+', pos);
      if (plus == std::string::npos) plus = s.impl.size();
      CountImpl(this, s.impl.substr(pos, plus - pos));
      calls += 1;
      pos = plus + 1;
    }
  }
}

void KernelLedger::Report(RunResult* result, double units) const {
  if (units <= 0) return;
  std::map<std::string, double>* out = &result->metrics;
  std::string names;
  for (const std::string& n : unlisted) names += (names.empty() ? "" : " ") + n;
  if (!names.empty()) result->env["kernel_unlisted_impls"] = names;
  for (const char* b : {"semijoin", "select", "join", "multiplex",
                        "aggregate", "group", "other"}) {
    auto it = bucket_ms.find(b);
    (*out)[std::string("kernel.") + b + "_ms"] =
        it == bucket_ms.end() ? 0 : it->second / units;
  }
  (*out)["kernel.calls"] = calls / units;
  for (const auto& [impl, n] : impl_calls) {
    (*out)["kernel.impl." + impl] = n / units;
  }
}

LoadedTpcd GenerateAndLoad(double scale_factor, uint64_t seed, SpanLog* spans,
                           RunResult* result) {
  LoadedTpcd out;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(spans, "tpcd.Generate");
    out.data = moaflat::tpcd::Generate(scale_factor, seed);
  }
  out.generate_s = SecondsSince(t0);
  const auto t1 = Clock::now();
  {
    ScopedSpan span(spans, "tpcd.Load");
    auto inst = moaflat::tpcd::Load(out.data, scale_factor);
    if (!inst.ok()) {
      result->Fail("load failed: " + inst.status().ToString());
      return out;
    }
    out.inst = *inst;
  }
  out.load_s = SecondsSince(t1);
  return out;
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

}  // namespace perfbench
