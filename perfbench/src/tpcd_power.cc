// tpcd_power: the paper's Fig. 9 experiment as a TPC-D power stream. One
// client runs Q1-Q15 once per pass, in a seed-permuted order, through
// QuerySuite::RunMonet under an explicit ExecContext at degree 4. Set-up
// (generate, load, and one untimed warm-up pass that also runs the row
// baseline for the engine cross-check) is timed as setup_s; the timed warm
// passes must reproduce the warm-up pass's rows, checksum and page faults
// bit for bit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "common/rng.h"
#include "moa/rewriter.h"
#include "storage/memory_tracker.h"
#include "storage/page_accountant.h"
#include "tpcd/queries.h"

namespace perfbench {

using namespace moaflat;  // NOLINT

namespace {

constexpr double kScaleFactor = 0.1;
constexpr int kDegree = 4;
constexpr int kSetups = 3;
constexpr int kQueries = tpcd::QuerySuite::kNumQueries;

struct QueryAnswer {
  size_t rows = 0;
  double check = 0;
  uint64_t faults = 0;
};

struct Setup {
  std::shared_ptr<tpcd::TpcdInstance> inst;
  std::vector<QueryAnswer> answers;  // index q-1
  double generate_s = 0;
  double load_s = 0;
  double warmup_s = 0;
  double total_s = 0;
  double relational_geomean_ms = 0;
};

std::vector<int> PassOrder(uint64_t seed, uint64_t pass) {
  std::vector<int> order(kQueries);
  std::iota(order.begin(), order.end(), 1);
  Rng rng(seed * 0x100000001b3ULL + pass);
  for (int i = kQueries - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.Uniform(0, i))]);
  }
  return order;
}

Result<tpcd::EngineRun> RunOne(tpcd::QuerySuite& suite, int q, int degree,
                               SpanLog* spans, storage::IoStats* io,
                               kernel::ExecTracer* tracer) {
  kernel::ExecContext ctx;
  ctx.WithIo(io).WithParallelDegree(degree);
  if (tracer != nullptr) ctx.WithTracer(tracer);
  ScopedSpan span(spans, "tpcd.QuerySuite::RunMonet", static_cast<uint64_t>(q));
  return suite.RunMonet(q, ctx);
}

Setup DoSetup(const Options& opt, SpanLog* spans, RunResult* result) {
  Setup s;
  const auto t0 = Clock::now();
  {
    LoadedTpcd loaded = GenerateAndLoad(kScaleFactor, opt.seed, spans, result);
    if (!loaded.inst) return s;
    s.inst = loaded.inst;
    s.generate_s = loaded.generate_s;
    s.load_s = loaded.load_s;
  }  // the generated rows are not needed past loading

  // Warm-up pass: both engines, cross-checked on rows and checksum.
  const auto t2 = Clock::now();
  tpcd::QuerySuite suite(s.inst);
  s.answers.resize(kQueries);
  std::vector<double> row_ms;
  for (int q : PassOrder(opt.seed, 0)) {
    storage::IoStats io;
    auto monet = RunOne(suite, q, kDegree, spans, &io, nullptr);
    storage::IoStats row_io;
    kernel::ExecContext row_ctx;
    row_ctx.WithIo(&row_io);
    const auto tb = Clock::now();
    Result<tpcd::EngineRun> base = Status::Invalid("not run");
    {
      ScopedSpan span(spans, "relational.QuerySuite::RunBaseline",
                      static_cast<uint64_t>(q));
      base = suite.RunBaseline(q, row_ctx);
    }
    row_ms.push_back(MsBetween(tb, Clock::now()));
    if (!monet.ok() || !base.ok()) {
      result->Fail("Q" + std::to_string(q) + " failed in the warm-up pass");
      continue;
    }
    const double tol = 1e-6 * std::max({1.0, std::fabs(monet->check),
                                        std::fabs(base->check)});
    if (monet->rows != base->rows ||
        std::fabs(monet->check - base->check) > tol) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "Q%d engines disagree: monet %zu rows / %.6f, row store "
                    "%zu rows / %.6f",
                    q, monet->rows, monet->check, base->rows, base->check);
      result->Fail(buf);
    }
    s.answers[static_cast<size_t>(q - 1)] = {monet->rows, monet->check,
                                             io.faults()};
  }
  s.warmup_s = SecondsSince(t2);
  s.total_s = SecondsSince(t0);
  s.relational_geomean_ms = GeoMean(row_ms);
  return s;
}

/// Timings of one measured window.
struct Window {
  std::vector<std::vector<double>> query_ms{kQueries};
  std::vector<double> all_ms;
  std::vector<double> pass_s;
  std::vector<double> stmt_ms;      // per pass
  std::vector<double> overhead_ms;  // per pass
  std::vector<double> intermediate_mb;
  std::vector<double> rss_after_pass;
  uint64_t faults_per_pass = 0;
  double peak_mb = 0;
  double elapsed_s = 0;
  double cpu_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  KernelLedger kernel;
};

Window Measure(const Options& opt, const Setup& s, double seconds,
               uint64_t first_pass, SpanLog* spans, RunResult* result) {
  Window w;
  tpcd::QuerySuite suite(s.inst);
  auto& mem = storage::MemoryTracker::Global();
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  uint64_t pass = first_pass;
  while (SecondsSince(start) < seconds || w.pass_s.empty()) {
    mem.MarkEpoch();
    const auto pass_start = Clock::now();
    double stmt_us = 0;
    double query_ms_sum = 0;
    uint64_t faults = 0;
    for (int q : PassOrder(opt.seed, ++pass)) {
      storage::IoStats io;
      kernel::ExecTracer tracer;
      const auto t0 = Clock::now();
      auto run = RunOne(suite, q, kDegree, spans, &io,
                        spans != nullptr ? &tracer : nullptr);
      const double ms = MsBetween(t0, Clock::now());
      ++w.attempted;
      const QueryAnswer& want = s.answers[static_cast<size_t>(q - 1)];
      if (!run.ok() || run->rows != want.rows || run->check != want.check ||
          io.faults() != want.faults) {
        ++w.failed;
        if (w.failed <= 3) {
          char buf[200];
          std::snprintf(buf, sizeof(buf),
                        "Q%d pass %llu: %zu rows / %.10g / %llu faults, "
                        "warm-up gave %zu / %.10g / %llu",
                        q, static_cast<unsigned long long>(pass),
                        run.ok() ? run->rows : 0, run.ok() ? run->check : 0.0,
                        static_cast<unsigned long long>(io.faults()),
                        want.rows, want.check,
                        static_cast<unsigned long long>(want.faults));
          result->problems.push_back(buf);
        }
        continue;
      }
      w.query_ms[static_cast<size_t>(q - 1)].push_back(ms);
      w.all_ms.push_back(ms);
      query_ms_sum += ms;
      for (const auto& t : run->traces) stmt_us += static_cast<double>(t.elapsed_us);
      faults += io.faults();
      w.kernel.AddRecords(tracer.records);
    }
    w.pass_s.push_back(SecondsSince(pass_start));
    w.stmt_ms.push_back(stmt_us / 1e3);
    w.overhead_ms.push_back(query_ms_sum - stmt_us / 1e3);
    w.intermediate_mb.push_back(static_cast<double>(mem.allocated_total()) / 1e6);
    w.peak_mb = std::max(w.peak_mb, static_cast<double>(mem.peak()) / 1e6);
    w.rss_after_pass.push_back(RssMb());
    w.faults_per_pass = faults;
  }
  w.elapsed_s = SecondsSince(start);
  w.cpu_s = CpuSeconds() - cpu0;
  return w;
}

std::map<std::string, double> EndToEnd(const Window& w, double setup_s) {
  std::vector<double> medians;
  for (const auto& v : w.query_ms) {
    if (!v.empty()) medians.push_back(Median(v));
  }
  return {
      {"setup_s", setup_s},
      {"power_geomean_ms", GeoMean(medians)},
      {"latency_p50_ms", Quantile(w.all_ms, 0.5)},
      {"latency_p90_ms", Quantile(w.all_ms, 0.90)},
      {"throughput_qps", static_cast<double>(w.all_ms.size()) / w.elapsed_s},
      {"rss_peak_mb", PeakRssMb()},
  };
}

}  // namespace

RunResult RunTpcdPower(const Options& opt, SpanLog* spans) {
  RunResult result;
  result.env["scale_factor"] = std::to_string(kScaleFactor);
  result.env["degree"] = std::to_string(kDegree);
  result.env["fsync_policy"] = "none (no WAL on this workload)";

  // Set up several times and keep the last; setup_s is their median. Only
  // the last is traced, so its difference from the others is the tracing
  // overhead of set-up.
  std::vector<double> setup_s, gen_s, load_s, warm_s;
  Setup s;
  for (int i = 0; i < kSetups; ++i) {
    s = Setup{};  // release the previous instance before loading the next
    const bool last = i + 1 == kSetups;
    s = DoSetup(opt, last ? spans : nullptr, &result);
    if (!s.inst) return result;
    setup_s.push_back(s.total_s);
    gen_s.push_back(s.generate_s);
    load_s.push_back(s.load_s);
    warm_s.push_back(s.warmup_s);
  }
  const tpcd::LoadStats stats = s.inst->stats;
  if (opt.corrupt_expected) s.answers[5].check += 1.0;  // Q6
  std::printf("setup: median %.3f s (generate %.3f, load %.3f, warm-up "
              "%.3f)\n",
              Median(setup_s), Median(gen_s), Median(load_s), Median(warm_s));

  auto& m = result.metrics;
  if (spans == nullptr) {
    Window w = Measure(opt, s, opt.seconds, 0, nullptr, &result);
    result.attempted = w.attempted;
    result.failed = w.failed;
    for (const auto& [k, v] : EndToEnd(w, Median(setup_s))) m[k] = v;
    std::printf("passes: %zu, stream median %.3f s; queries: %s\n",
                w.pass_s.size(), Median(w.pass_s),
                DescribeLatency(w.all_ms).c_str());
    return result;
  }

  // Traced run: an untraced half window, then a traced half window; the
  // per-layer metrics come from the traced half, and the difference of the
  // two halves' end-to-end metrics is the tracing overhead.
  Window plain = Measure(opt, s, opt.seconds / 2, 0, nullptr, &result);
  const auto plain_e2e = EndToEnd(plain, Median({setup_s.begin(), setup_s.end() - 1}));
  Window w = Measure(opt, s, opt.seconds / 2, 1000, spans, &result);
  const auto traced_e2e = EndToEnd(w, setup_s.back());
  for (const auto& [k, v] : traced_e2e) {
    m["trace.overhead." + k] = v - plain_e2e.at(k);
  }
  result.attempted = plain.attempted + w.attempted;
  result.failed = plain.failed + w.failed;

  m["tpcd.generate_s"] = Median(gen_s);
  m["tpcd.load_s"] = Median(load_s);
  m["tpcd.load_bulk_s"] = stats.bulk_load_sec;
  m["tpcd.load_accel_s"] = stats.accel_sec;
  m["tpcd.load_reorder_s"] = stats.reorder_sec;
  m["tpcd.warmup_pass_s"] = Median(warm_s);
  std::vector<double> medians;
  for (int q = 1; q <= kQueries; ++q) {
    char name[32];
    std::snprintf(name, sizeof(name), "tpcd.q%02d_ms", q);
    m[name] = Median(w.query_ms[static_cast<size_t>(q - 1)]);
    medians.push_back(m[name]);
  }
  m["tpcd.stream_s"] = Median(w.pass_s);
  m["client.latency_p99_ms"] = Quantile(w.all_ms, 0.99);
  m["relational.geomean_ms"] = s.relational_geomean_ms;
  m["relational.qppd"] = s.relational_geomean_ms / GeoMean(medians);
  m["mil.stmt_ms"] = Mean(w.stmt_ms);
  m["mil.overhead_ms"] = Mean(w.overhead_ms);
  w.kernel.Report(&result, static_cast<double>(w.pass_s.size()));
  m["storage.faults"] = static_cast<double>(w.faults_per_pass);
  m["storage.intermediate_mb"] = Median(w.intermediate_mb);
  m["storage.peak_mb"] = w.peak_mb;
  if (w.rss_after_pass.size() >= 2) {
    m["bat.rss_growth_mb_per_pass"] =
        (w.rss_after_pass.back() - w.rss_after_pass.front()) /
        static_cast<double>(w.rss_after_pass.size() - 1);
  }
  m["common.cpu_util"] = w.cpu_s / w.elapsed_s;

  // Degree 1 against degree 4: one pass each way, answers checked on rows
  // and checksum (fault counts legitimately differ with the block plan).
  {
    std::string differing;
    tpcd::QuerySuite suite(s.inst);
    const auto t0 = Clock::now();
    for (int q : PassOrder(opt.seed, 5000)) {
      storage::IoStats io;
      auto run = RunOne(suite, q, 1, spans, &io, nullptr);
      const QueryAnswer& want = s.answers[static_cast<size_t>(q - 1)];
      ++result.attempted;
      if (run.ok() && run->check != want.check) {
        // Same rows, checksum off in the last digits: a parallel reduction
        // summed in another order. Reported, not counted as a wrong answer.
        differing += " Q" + std::to_string(q);
      }
      const double tol = 1e-9 * std::max(1.0, std::fabs(want.check));
      if (!run.ok() || run->rows != want.rows ||
          std::fabs(run->check - want.check) > tol) {
        ++result.failed;
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "Q%d at degree 1: %zu rows / %.17g, degree 4 gave %zu / "
                      "%.17g", q, run.ok() ? run->rows : 0,
                      run.ok() ? run->check : 0.0, want.rows, want.check);
        result.problems.push_back(buf);
      }
    }
    m["common.parallel_speedup"] = SecondsSince(t0) / Median(w.pass_s);
    result.env["degree1_checksums"] =
        differing.empty() ? "bit-identical to degree 4"
                          : "not bit-identical to degree 4:" + differing;
  }

  // MOA parse + flatten of the five rewriter-covered queries.
  {
    tpcd::QuerySuite suite(s.inst);
    std::vector<double> per_rep;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (int q : {1, 3, 6, 10, 13}) {
        moa::Rewriter rewriter(&s.inst->db);
        ScopedSpan span(spans, "moa.Rewriter::TranslateText",
                        static_cast<uint64_t>(q));
        auto tr = rewriter.TranslateText(suite.MoaText(q));
        if (!tr.ok()) result.Fail("Q" + std::to_string(q) + " does not translate");
      }
      per_rep.push_back(MsBetween(t0, Clock::now()));
    }
    m["moa.translate_ms"] = Median(per_rep);
  }
  std::printf("traced passes: %zu, stream median %.3f s; queries: %s\n",
              w.pass_s.size(), Median(w.pass_s),
              DescribeLatency(w.all_ms).c_str());
  return result;
}

}  // namespace perfbench
