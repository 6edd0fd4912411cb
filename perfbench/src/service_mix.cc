// service_mix: four closed-loop clients, each with one WireClient
// connection to an in-process WireServer and a session at degree 4, over
// the default ServiceConfig (two executors, so the clients queue). A
// request is SUBMIT -> WAIT -> RESULT; the class mix is 85 % short lookups,
// 10 % Fig. 10 Q13 loss programs and 5 % Q6 scans, in a seed-drawn order.
// Every RESULT must equal the answer computed in set-up by running the same
// text directly through MilInterpreter::Run, with the same page faults.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "mil/analyzer.h"
#include "mil/parser.h"
#include "service/query_service.h"
#include "service/wire.h"
#include "storage/memory_tracker.h"
#include "texts.h"

namespace perfbench {

using namespace moaflat;  // NOLINT

namespace {

constexpr double kScaleFactor = 0.05;
constexpr int kDegree = 4;
constexpr int kClients = 4;
constexpr int kSetups = 3;
/// Each client draws its classes from shuffled blocks of 20 requests with
/// exactly 17 short, 2 medium and 1 long, so every run has the 85/10/5 mix
/// and the seed only decides the order and the parameters.
constexpr int kBlock = 20;
constexpr int kBlockShort = 17;
constexpr int kBlockMedium = 2;
/// rss_peak_mb is read when this many requests have completed: the service
/// keeps every query's bindings until it shuts down, so a peak taken at the
/// end of the window would grow with throughput.
constexpr uint64_t kRssRequests = 1000;

struct Setup {
  std::shared_ptr<tpcd::TpcdInstance> inst;
  std::unique_ptr<service::QueryService> svc;
  std::unique_ptr<service::WireServer> server;
  std::vector<std::string> clerks;  // clerks with at least one order
  std::map<std::string, Expected> expected;  // by text
  double generate_s = 0, load_s = 0, total_s = 0;
  tpcd::TpcdData data;
};

std::unique_ptr<Setup> DoSetup(const Options& opt, SpanLog* spans,
                               RunResult* result) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  LoadedTpcd loaded = GenerateAndLoad(kScaleFactor, opt.seed, spans, result);
  if (!loaded.inst) return nullptr;
  s->data = std::move(loaded.data);
  s->inst = loaded.inst;
  s->generate_s = loaded.generate_s;
  s->load_s = loaded.load_s;
  {
    ScopedSpan span(spans, "service.start");
    s->svc = std::make_unique<service::QueryService>();
    s->svc->SetCatalog(s->inst->db.env());
    s->server = std::make_unique<service::WireServer>(*s->svc, 0);
    Status st = s->server->Start();
    if (!st.ok()) {
      result->Fail("wire server: " + st.ToString());
      return nullptr;
    }
  }
  std::set<std::string> with_orders;
  for (const auto& o : s->data.orders) with_orders.insert(o.clerk);
  s->clerks.assign(with_orders.begin(), with_orders.end());

  std::vector<std::pair<std::string, ReqClass>> texts;
  for (const std::string& c : s->clerks) {
    texts.emplace_back(ShortText(c), ReqClass::kShort);
    texts.emplace_back(MediumText(c), ReqClass::kMedium);
  }
  for (int y = kFirstYear; y <= kLastYear; ++y) {
    texts.emplace_back(LongText(y), ReqClass::kLong);
  }
  const mil::MilEnv& catalog = s->inst->db.env();
  for (const auto& [text, cls] : texts) {
    auto e = ComputeExpected(catalog, text, cls, kDegree, spans);
    if (!e.ok()) {
      result->Fail(std::string(ClassName(cls)) + " expected answer failed: " +
                   e.status().ToString());
      return nullptr;
    }
    s->expected.emplace(text, std::move(*e));
  }
  s->total_s = SecondsSince(t0);
  return s;
}

std::string OneLine(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ';');
  return text;
}

/// One client request as observed.
struct Sample {
  ReqClass cls = ReqClass::kShort;
  double submit_ms = 0, wait_ms = 0, result_ms = 0, total_ms = 0;
  double run_ms = 0;  // sum of TRACE statement times (traced only)
  bool queued = false;
  double cost = 0;
  uint64_t faults = 0;
};

struct Window {
  std::vector<Sample> samples;
  std::vector<double> ping_us;
  KernelLedger kernel;
  uint64_t attempted = 0, failed = 0;
  double elapsed_s = 0, cpu_s = 0;
  double rss_start = 0, rss_end = 0;
  double intermediate_mb = 0, peak_mb = 0;
  double rss_peak_mb = 0;  // at kRssRequests completed requests
  std::vector<std::string> problems;
};

std::string Field(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return "";
  const size_t from = at + key.size() + 2;
  return line.substr(from, line.find(' ', from) - from);
}

/// Parses the TRACE body ("1.25ms 17f 300 var := op(args) [impl]").
std::vector<mil::StmtTrace> ParseTrace(const std::vector<std::string>& body) {
  std::vector<mil::StmtTrace> out;
  for (const std::string& line : body) {
    mil::StmtTrace t;
    std::istringstream is(line);
    std::string ms, faults, n;
    is >> ms >> faults >> n;
    t.elapsed_us = static_cast<int64_t>(std::strtod(ms.c_str(), nullptr) * 1000.0);
    std::string rest;
    std::getline(is, rest);
    if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    if (!rest.empty() && rest.back() == ']') {
      const size_t open = rest.rfind(" [");
      if (open != std::string::npos) {
        t.impl = rest.substr(open + 2, rest.size() - open - 3);
        rest.resize(open);
      }
    }
    t.text = rest;
    out.push_back(std::move(t));
  }
  return out;
}

void Client(const Setup& s, const Options& opt, int id, bool traced,
            SpanLog* spans, Clock::time_point deadline, Window* w,
            std::mutex* mu, std::atomic<uint64_t>* completed) {
  Window local;
  auto fail = [&](const std::string& why) {
    ++local.failed;
    if (local.problems.size() < 3) local.problems.push_back(why);
  };
  service::WireClient c;
  // A server that stops answering fails the run instead of hanging it.
  c.SetCallTimeout(60000);
  Status st = c.Connect("127.0.0.1", s.server->port(), 5);
  std::string sid;
  if (st.ok()) {
    auto open = c.Call("OPEN degree=" + std::to_string(kDegree));
    if (open.ok() && open->rfind("OK ", 0) == 0) sid = open->substr(3);
  }
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(id) + 1);
  std::vector<ReqClass> block;
  for (int i = 0; i < kBlock; ++i) {
    block.push_back(i < kBlockShort                  ? ReqClass::kShort
                    : i < kBlockShort + kBlockMedium ? ReqClass::kMedium
                                                     : ReqClass::kLong);
  }
  // Parameters cycle through seed-shuffled lists, so every year and every
  // clerk recurs at a fixed rate and a run's work does not hinge on how
  // often the dearest ones were drawn.
  auto shuffled = [&rng](auto v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<size_t>(
                              rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
    return v;
  };
  std::vector<int> years;
  for (int y = kFirstYear; y <= kLastYear; ++y) years.push_back(y);
  const std::vector<std::string> short_clerks = shuffled(s.clerks);
  const std::vector<std::string> medium_clerks = shuffled(s.clerks);
  years = shuffled(years);
  size_t next_short = 0, next_medium = 0, next_long = 0;
  uint64_t n = 0;
  while (!sid.empty() && Clock::now() < deadline) {
    if (n % kBlock == 0) block = shuffled(block);
    const ReqClass cls = block[n % kBlock];
    std::string text;
    if (cls == ReqClass::kLong) {
      text = LongText(years[next_long++ % years.size()]);
    } else if (cls == ReqClass::kShort) {
      text = ShortText(short_clerks[next_short++ % short_clerks.size()]);
    } else {
      text = MediumText(medium_clerks[next_medium++ % medium_clerks.size()]);
    }
    const Expected& want = s.expected.at(text);
    const uint64_t req = (static_cast<uint64_t>(id) << 32) | ++n;
    ++local.attempted;
    if (traced && n % 10 == 1) {
      const auto p0 = Clock::now();
      ScopedSpan span(spans, "wire.PING", req);
      auto pong = c.Call("PING");
      if (pong.ok()) local.ping_us.push_back(MsBetween(p0, Clock::now()) * 1e3);
    }

    Sample smp;
    smp.cls = cls;
    ScopedSpan request_span(spans, std::string("request.") + ClassName(cls), req);
    const auto t0 = Clock::now();
    Result<std::string> sub = Status::Invalid("not run");
    {
      ScopedSpan span(spans, "service.SUBMIT", req);
      sub = c.Call("SUBMIT " + sid + " " + OneLine(text));
    }
    const auto t1 = Clock::now();
    std::string qid, action;
    if (sub.ok()) {
      std::istringstream is(*sub);
      std::string ok;
      is >> ok >> qid >> action;
      if (ok != "OK" || (action != "ADMIT" && action != "QUEUE")) qid.clear();
    }
    if (qid.empty()) {
      fail("SUBMIT: " + (sub.ok() ? *sub : sub.status().ToString()));
      continue;
    }
    Result<std::string> waited = Status::Invalid("not run");
    {
      ScopedSpan span(spans, "service.WAIT", req);
      waited = c.Call("WAIT " + qid);
    }
    const auto t2 = Clock::now();
    if (!waited.ok() || waited->rfind("OK DONE", 0) != 0) {
      fail("WAIT: " + (waited.ok() ? *waited : waited.status().ToString()));
      continue;
    }
    Result<std::string> head = Status::Invalid("not run");
    Result<std::vector<std::string>> body = Status::Invalid("not run");
    {
      ScopedSpan span(spans, "wire.RESULT", req);
      head = c.Call("RESULT " + qid + " " + ResultVar(cls) + " 1000000");
      if (head.ok() && head->rfind("OK ", 0) == 0) body = c.ReadBody();
    }
    const auto t3 = Clock::now();
    if (!head.ok() || head->rfind("OK ", 0) != 0 || !body.ok()) {
      fail("RESULT: " + (head.ok() ? *head : head.status().ToString()));
      continue;
    }
    std::string rendered;
    for (const std::string& line : *body) rendered += line + "\n";
    smp.faults = std::strtoull(Field(*waited, "faults").c_str(), nullptr, 10);
    if (rendered != want.rendered || smp.faults != want.faults) {
      fail(std::string(ClassName(cls)) + " answer differs from the direct "
           "run (faults " + std::to_string(smp.faults) + " vs " +
           std::to_string(want.faults) + ")");
      continue;
    }
    smp.submit_ms = MsBetween(t0, t1);
    smp.wait_ms = MsBetween(t1, t2);
    smp.result_ms = MsBetween(t2, t3);
    smp.total_ms = MsBetween(t0, t3);
    smp.queued = action == "QUEUE";
    smp.cost = std::strtod(Field(*sub, "cost").c_str(), nullptr);
    if (traced) {
      auto tr = c.Call("TRACE " + qid);
      auto lines = tr.ok() ? c.ReadBody() : Result<std::vector<std::string>>(tr.status());
      if (lines.ok()) {
        auto stmts = ParseTrace(*lines);
        for (const auto& t : stmts) smp.run_ms += static_cast<double>(t.elapsed_us) / 1e3;
        local.kernel.AddStmts(stmts);
      }
    }
    local.samples.push_back(smp);
    if (completed->fetch_add(1) + 1 == kRssRequests) {
      const double rss = PeakRssMb();
      std::lock_guard<std::mutex> lock(*mu);
      w->rss_peak_mb = rss;
    }
  }
  if (sid.empty()) fail("client " + std::to_string(id) + " could not open a session");
  if (!sid.empty()) (void)c.Call("CLOSE " + sid);
  (void)c.Call("BYE");

  std::lock_guard<std::mutex> lock(*mu);
  w->samples.insert(w->samples.end(), local.samples.begin(), local.samples.end());
  w->ping_us.insert(w->ping_us.end(), local.ping_us.begin(), local.ping_us.end());
  for (const auto& [k, v] : local.kernel.bucket_ms) w->kernel.bucket_ms[k] += v;
  for (const auto& [k, v] : local.kernel.impl_calls) w->kernel.impl_calls[k] += v;
  w->kernel.calls += local.kernel.calls;
  w->kernel.unlisted.insert(local.kernel.unlisted.begin(),
                            local.kernel.unlisted.end());
  w->attempted += local.attempted;
  w->failed += local.failed;
  w->problems.insert(w->problems.end(), local.problems.begin(), local.problems.end());
}

Window Measure(const Setup& s, const Options& opt, double seconds,
               bool traced, SpanLog* spans) {
  Window w;
  std::mutex mu;
  auto& mem = storage::MemoryTracker::Global();
  mem.MarkEpoch();
  w.rss_start = RssMb();
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(Client, std::cref(s), std::cref(opt), i, traced,
                         spans, deadline, &w, &mu, &completed);
  }
  for (auto& t : clients) t.join();
  w.elapsed_s = SecondsSince(start);
  w.cpu_s = CpuSeconds() - cpu0;
  w.rss_end = RssMb();
  w.intermediate_mb = static_cast<double>(mem.allocated_total()) / 1e6;
  w.peak_mb = static_cast<double>(mem.peak()) / 1e6;
  if (w.rss_peak_mb == 0) w.rss_peak_mb = PeakRssMb();
  return w;
}

std::vector<double> Totals(const Window& w, int cls = -1) {
  std::vector<double> out;
  for (const Sample& s : w.samples) {
    if (cls < 0 || static_cast<int>(s.cls) == cls) out.push_back(s.total_ms);
  }
  return out;
}

std::map<std::string, double> EndToEnd(const Window& w, double setup_s) {
  std::vector<double> class_medians;
  for (int c = 0; c < 3; ++c) {
    auto v = Totals(w, c);
    if (!v.empty()) class_medians.push_back(Median(v));
  }
  const auto all = Totals(w);
  return {
      {"setup_s", setup_s},
      {"power_geomean_ms", GeoMean(class_medians)},
      {"latency_p50_ms", Quantile(all, 0.5)},
      {"latency_p90_ms", Quantile(all, 0.90)},
      {"throughput_qps", static_cast<double>(all.size()) / w.elapsed_s},
      {"rss_peak_mb", w.rss_peak_mb},
  };
}

void Describe(const Window& w) {
  for (int c = 0; c < 3; ++c) {
    std::printf("%-6s %s\n", ClassName(static_cast<ReqClass>(c)),
                DescribeLatency(Totals(w, c)).c_str());
  }
  std::printf("all    %s\n", DescribeLatency(Totals(w)).c_str());
}

/// ParseMil and AnalyzeProgram on up to 20 texts of each class, outside
/// the measured window, so the client loop is not perturbed.
void ParseAndAnalyze(const Setup& s, SpanLog* spans,
                     std::map<std::string, double>* m) {
  const mil::MilEnv& catalog = s.inst->db.env();
  for (int c = 0; c < 3; ++c) {
    std::vector<double> parse_ms, analyze_ms;
    int taken = 0;
    for (const auto& [text, e] : s.expected) {
      if (static_cast<int>(e.cls) != c || taken++ >= 20) continue;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        Result<mil::MilProgram> p = Status::Invalid("not run");
        {
          ScopedSpan span(spans, "mil.ParseMil");
          p = mil::ParseMil(text);
        }
        const auto t1 = Clock::now();
        if (!p.ok()) continue;
        {
          ScopedSpan span(spans, "mil.AnalyzeProgram");
          (void)mil::AnalyzeProgram(*p, catalog);
        }
        parse_ms.push_back(MsBetween(t0, t1));
        analyze_ms.push_back(MsBetween(t1, Clock::now()));
      }
    }
    const std::string cls = ClassName(static_cast<ReqClass>(c));
    (*m)["mil.parse_ms." + cls] = Median(parse_ms);
    (*m)["mil.analyze_ms." + cls] = Median(analyze_ms);
  }
}

}  // namespace

RunResult RunServiceMix(const Options& opt, SpanLog* spans) {
  RunResult result;
  result.env["scale_factor"] = std::to_string(kScaleFactor);
  result.env["degree"] = std::to_string(kDegree);
  result.env["clients"] = std::to_string(kClients);
  result.env["executors"] = std::to_string(service::ServiceConfig{}.executors);
  result.env["fsync_policy"] = "none (non-durable sessions)";

  std::vector<double> setup_s, gen_s, load_s;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < kSetups; ++i) {
    if (s) {
      s->server->Stop();
      s->svc->Shutdown(false);
    }
    s.reset();
    s = DoSetup(opt, i + 1 == kSetups ? spans : nullptr, &result);
    if (!s) return result;
    setup_s.push_back(s->total_s);
    gen_s.push_back(s->generate_s);
    load_s.push_back(s->load_s);
  }
  std::printf("setup: median %.3f s (generate %.3f, load %.3f), %zu texts\n",
              Median(setup_s), Median(gen_s), Median(load_s),
              s->expected.size());
  CheckTexts(s->data, s->inst, false, &result);
  if (opt.corrupt_expected) {
    s->expected.at(ShortText(s->clerks.front())).rendered += "corrupted\n";
  }

  auto& m = result.metrics;
  auto finish = [&](const Window& w) {
    result.attempted += w.attempted;
    result.failed += w.failed;
    result.problems.insert(result.problems.end(), w.problems.begin(),
                           w.problems.end());
  };
  if (spans == nullptr) {
    Window w = Measure(*s, opt, opt.seconds, false, nullptr);
    finish(w);
    for (const auto& [k, v] : EndToEnd(w, Median(setup_s))) m[k] = v;
    Describe(w);
  } else {
    Window plain = Measure(*s, opt, opt.seconds / 2, false, nullptr);
    finish(plain);
    Window w = Measure(*s, opt, opt.seconds / 2, true, spans);
    finish(w);
    const auto plain_e2e =
        EndToEnd(plain, Median({setup_s.begin(), setup_s.end() - 1}));
    for (const auto& [k, v] : EndToEnd(w, setup_s.back())) {
      m["trace.overhead." + k] = v - plain_e2e.at(k);
    }
    Describe(w);
    const double n = static_cast<double>(w.samples.size());
    std::vector<double> sub, wait, run, queue, res, ratio;
    double queued = 0;
    std::map<int, std::vector<double>> faults;
    std::vector<double> all_faults;
    for (const Sample& x : w.samples) {
      sub.push_back(x.submit_ms);
      wait.push_back(x.wait_ms);
      run.push_back(x.run_ms);
      queue.push_back(x.wait_ms - x.run_ms);
      res.push_back(x.result_ms);
      queued += x.queued ? 1 : 0;
      faults[static_cast<int>(x.cls)].push_back(static_cast<double>(x.faults));
      all_faults.push_back(static_cast<double>(x.faults));
      if (x.faults > 0) ratio.push_back(x.cost / static_cast<double>(x.faults));
    }
    m["tpcd.generate_s"] = Median(gen_s);
    m["tpcd.load_s"] = Median(load_s);
    m["tpcd.load_bulk_s"] = s->inst->stats.bulk_load_sec;
    m["tpcd.load_accel_s"] = s->inst->stats.accel_sec;
    m["tpcd.load_reorder_s"] = s->inst->stats.reorder_sec;
    m["service.submit_ms"] = Mean(sub);
    m["service.wait_ms"] = Mean(wait);
    m["service.run_ms"] = Mean(run);
    m["service.queue_ms"] = Mean(queue);
    m["service.queued_ratio"] = n > 0 ? queued / n : 0;
    m["service.cost_over_faults"] =
        ratio.empty() ? 0 : *std::min_element(ratio.begin(), ratio.end());
    m["service.short_p99_ms"] = Quantile(Totals(w, 0), 0.99);
    m["client.latency_p99_ms"] = Quantile(Totals(w), 0.99);
    m["wire.ping_us"] = Median(w.ping_us);
    m["wire.result_ms"] = Mean(res);
    m["storage.faults"] = Mean(all_faults);
    m["storage.faults.short"] = Mean(faults[0]);
    m["storage.faults.medium"] = Mean(faults[1]);
    m["storage.faults.long"] = Mean(faults[2]);
    m["storage.intermediate_mb"] = n > 0 ? w.intermediate_mb / n : 0;
    m["storage.peak_mb"] = w.peak_mb;
    m["bat.rss_growth_mb_per_pass"] =
        n > 0 ? (w.rss_end - w.rss_start) / n * 15.0 : 0;
    m["common.cpu_util"] = w.cpu_s / w.elapsed_s;
    w.kernel.Report(&result, n);
    ParseAndAnalyze(*s, spans, &m);
    if (!ratio.empty() && m["service.cost_over_faults"] < 1.0) {
      result.problems.push_back(
          "predicted cost below measured faults: the analyzer's bound is "
          "not sound on some request");
    }
  }
  s->server->Stop();
  s->svc->Shutdown(false);
  return result;
}

}  // namespace perfbench
