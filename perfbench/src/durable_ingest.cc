// durable_ingest: writes beside reads on the in-process QueryService. Two
// durable writer sessions append one-BUN inserts to their own ledger
// binding; two non-durable reader sessions run the service_mix short
// lookup while the writers are active; all four clients are closed loops at
// degree 1. An episode runs
// kRounds rounds of kRoundCommits commits per writer, each round ending in
// a checkpoint (QueryService::Sync), then kTailCommits more commits that
// stay in the WAL. The service then shuts down without a checkpoint, and a
// fresh QueryService::EnableDurability on the same directory recovers it;
// every acknowledged insert must be back, in order. Episodes repeat until
// the time budget is spent; the fixed commit counts make byte counts
// repeat exactly.
#include <malloc.h>
#include <sys/stat.h>

#include <atomic>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bat/bat.h"
#include "bat/column.h"
#include "bench.h"
#include "common/rng.h"
#include "service/query_service.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "texts.h"

namespace perfbench {

using namespace moaflat;  // NOLINT

namespace {

constexpr double kScaleFactor = 0.01;
constexpr int kDegree = 1;
constexpr int kWriters = 2;
constexpr int kReaders = 2;
constexpr int kSetups = 5;
constexpr int kRounds = 3;
constexpr int kRoundCommits = 300;
constexpr int kTailCommits = 50;
/// User bytes of one inserted BUN: an int sequence number and an int value.
constexpr double kUserBytesPerInsert = 8;

std::string LedgerName(int w) { return "ledger_" + std::to_string(w); }

double FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
}

struct Setup {
  std::shared_ptr<tpcd::TpcdInstance> inst;
  tpcd::TpcdData data;
  std::vector<std::string> clerks;
  std::map<std::string, Expected> expected;  // by read text
  std::string base_dir;
  double generate_s = 0, load_s = 0, checkpoint_s = 0, total_s = 0;
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

  mil::MilEnv catalog = s->inst->db.env();
  for (int w = 0; w < kWriters; ++w) {
    catalog.BindBat(LedgerName(w), bat::Bat(bat::Column::MakeInt({}),
                                            bat::Column::MakeInt({})));
  }
  // The initial checkpoint that makes the catalog durable.
  const auto t2 = Clock::now();
  s->base_dir = opt.workdir + "/base";
  std::error_code ec;
  std::filesystem::remove_all(s->base_dir, ec);
  std::filesystem::create_directories(s->base_dir, ec);
  {
    ScopedSpan span(spans, "storage.WriteCheckpoint");
    Status st = storage::WriteCheckpoint(s->base_dir, catalog, 0);
    if (!st.ok()) {
      result->Fail("initial checkpoint: " + st.ToString());
      return nullptr;
    }
  }
  s->checkpoint_s = SecondsSince(t2);

  // Expected answers come from the catalog as the service recovers it from
  // the checkpoint, which is what the readers query.
  auto reloaded = storage::LoadCheckpoint(s->base_dir);
  if (!reloaded.ok() || !reloaded->found) {
    result->Fail("the initial checkpoint does not load back");
    return nullptr;
  }
  std::set<std::string> with_orders;
  for (const auto& o : s->data.orders) with_orders.insert(o.clerk);
  s->clerks.assign(with_orders.begin(), with_orders.end());
  for (const std::string& c : s->clerks) {
    auto e = ComputeExpected(reloaded->env, ShortText(c), ReqClass::kShort,
                             kDegree, spans);
    if (!e.ok()) {
      result->Fail("expected answer failed: " + e.status().ToString());
      return nullptr;
    }
    s->expected.emplace(ShortText(c), std::move(*e));
  }
  s->total_s = SecondsSince(t0);
  return s;
}

struct Window {
  std::vector<double> read_ms, commit_ms, commit_wait_ms;
  std::vector<double> submit_ms, wait_ms, run_ms;
  std::vector<double> recovery_s, sync_ms, checkpoint_mb;
  std::vector<double> read_faults, cost_over_faults;
  double queued = 0;
  double wal_bytes = 0, checkpoint_bytes = 0;
  double replayed = 0;
  double active_s = 0;
  double elapsed_s = 0, cpu_s = 0;
  uint64_t commits = 0, episodes = 0;
  uint64_t attempted = 0, failed = 0;
  KernelLedger kernel;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    ++failed;
    if (problems.size() < 5) problems.push_back(why);
  }
};

/// One request on the in-process API: Submit then Wait, timed apart.
struct Call {
  service::QueryResult r;
  double submit_ms = 0, wait_ms = 0;
  bool ok = false;
  std::string error;
};

Call SubmitAndWait(service::QueryService& svc, uint64_t sid,
                   const std::string& text, SpanLog* spans, uint64_t req) {
  Call c;
  const auto t0 = Clock::now();
  Result<uint64_t> qid = Status::Invalid("not run");
  {
    ScopedSpan span(spans, "service.Submit", req);
    qid = svc.Submit(sid, text);
  }
  const auto t1 = Clock::now();
  c.submit_ms = MsBetween(t0, t1);
  if (!qid.ok()) {
    c.error = qid.status().ToString();
    return c;
  }
  Result<service::QueryResult> r = Status::Invalid("not run");
  {
    ScopedSpan span(spans, "service.Wait", req);
    r = svc.Wait(*qid);
  }
  c.wait_ms = MsBetween(t1, Clock::now());
  if (!r.ok()) {
    c.error = r.status().ToString();
    return c;
  }
  c.r = std::move(*r);
  c.ok = c.r.state == service::QueryState::kDone;
  if (!c.ok) {
    c.error = c.r.status.ToString() + " " + c.r.admission.reason;
  }
  return c;
}

void Episode(const Setup& s, const Options& opt, uint64_t episode,
             bool traced, SpanLog* spans, Window* w) {
  const std::string dir = opt.workdir + "/ep" + std::to_string(episode);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::filesystem::copy_file(storage::CheckpointPath(s.base_dir),
                             storage::CheckpointPath(dir),
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  if (ec) {
    w->Fail("cannot copy the base checkpoint: " + ec.message());
    return;
  }
  auto svc = std::make_unique<service::QueryService>();
  Status st = svc->EnableDurability(dir);
  if (!st.ok()) {
    w->Fail("EnableDurability: " + st.ToString());
    return;
  }
  service::SessionOptions wopts;
  wopts.durable = true;
  wopts.parallel_degree = kDegree;
  service::SessionOptions ropts;
  ropts.parallel_degree = kDegree;
  std::vector<uint64_t> writer_sid, reader_sid;
  for (int i = 0; i < kWriters + kReaders; ++i) {
    auto sid = svc->OpenSession(i < kWriters ? wopts : ropts);
    if (!sid.ok()) {
      w->Fail("OpenSession: " + sid.status().ToString());
      return;
    }
    (i < kWriters ? writer_sid : reader_sid).push_back(*sid);
  }

  std::mutex mu;
  std::vector<std::vector<std::pair<int32_t, int32_t>>> acked(kWriters);
  std::atomic<int> writers_left{kWriters};
  auto checkpoint = [&]() noexcept {
    // Runs once per round, when both writers have arrived: the WAL holds
    // exactly this round's commits, which the checkpoint then truncates.
    const double wal = FileBytes(storage::WalPath(dir));
    const auto t0 = Clock::now();
    Status sync = Status::OK();
    {
      ScopedSpan span(spans, "service.Sync");
      sync = svc->Sync();
    }
    const double ms = MsBetween(t0, Clock::now());
    std::lock_guard<std::mutex> lock(mu);
    if (!sync.ok()) {
      w->Fail("Sync: " + sync.ToString());
      return;
    }
    w->wal_bytes += wal;
    const double cp = FileBytes(storage::CheckpointPath(dir));
    w->checkpoint_bytes += cp;
    w->checkpoint_mb.push_back(cp / 1e6);
    w->sync_ms.push_back(ms);
  };
  std::barrier round_end(kWriters, checkpoint);

  auto record = [&](const Call& c, bool commit, double total_ms) {
    std::lock_guard<std::mutex> lock(mu);
    w->submit_ms.push_back(c.submit_ms);
    w->wait_ms.push_back(c.wait_ms);
    double stmt_ms = 0;
    for (const auto& t : c.r.traces) stmt_ms += static_cast<double>(t.elapsed_us) / 1e3;
    w->run_ms.push_back(stmt_ms);
    if (c.r.admission.action == service::Admission::kQueue) w->queued += 1;
    if (traced) w->kernel.AddStmts(c.r.traces);
    if (commit) {
      w->commit_ms.push_back(total_ms);
      w->commit_wait_ms.push_back(c.wait_ms);
      ++w->commits;
    } else {
      w->read_ms.push_back(total_ms);
      w->read_faults.push_back(static_cast<double>(c.r.faults));
      if (c.r.faults > 0) {
        w->cost_over_faults.push_back(c.r.admission.predicted_cost /
                                      static_cast<double>(c.r.faults));
      }
    }
  };

  auto writer = [&](int id) {
    Rng rng(opt.seed * 0x2545f4914f6cdd1dULL + episode * 131 +
            static_cast<uint64_t>(id));
    int32_t seq = 0;
    auto commit = [&]() {
      const int32_t value = static_cast<int32_t>(rng.Uniform(0, 999999999));
      const std::string name = LedgerName(id);
      const std::string text = name + " := insert(" + name + ", " +
                               std::to_string(++seq) + ", " +
                               std::to_string(value) + ")";
      const uint64_t req = (episode << 40) | (static_cast<uint64_t>(id) << 32) |
                           static_cast<uint64_t>(seq);
      ScopedSpan span(spans, "request.commit", req);
      const auto t0 = Clock::now();
      Call c = SubmitAndWait(*svc, writer_sid[static_cast<size_t>(id)], text,
                             spans, req);
      const double ms = MsBetween(t0, Clock::now());
      {
        std::lock_guard<std::mutex> lock(mu);
        ++w->attempted;
      }
      if (!c.ok) {
        std::lock_guard<std::mutex> lock(mu);
        w->Fail("commit: " + c.error);
        return;
      }
      acked[static_cast<size_t>(id)].emplace_back(seq, value);
      record(c, true, ms);
    };
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kRoundCommits; ++i) commit();
      round_end.arrive_and_wait();
    }
    for (int i = 0; i < kTailCommits; ++i) commit();
    writers_left.fetch_sub(1);
  };

  auto reader = [&](int id) {
    Rng rng(opt.seed * 0x61c8864680b583ebULL + episode * 131 +
            static_cast<uint64_t>(id));
    uint64_t n = 0;
    while (writers_left.load() > 0) {
      const std::string text = ShortText(rng.Pick(s.clerks));
      const Expected& want = s.expected.at(text);
      const uint64_t req = (episode << 40) | (uint64_t{1} << 39) |
                           (static_cast<uint64_t>(id) << 32) | ++n;
      ScopedSpan span(spans, "request.read", req);
      const auto t0 = Clock::now();
      Call c = SubmitAndWait(*svc, reader_sid[static_cast<size_t>(id)], text,
                             spans, req);
      const double ms = MsBetween(t0, Clock::now());
      {
        std::lock_guard<std::mutex> lock(mu);
        ++w->attempted;
      }
      bool right = false;
      if (c.ok) {
        auto it = c.r.results.find("total");
        const Value* v = it == c.r.results.end()
                             ? nullptr
                             : std::get_if<Value>(&it->second);
        right = v != nullptr && v->ToString() + "\n" == want.rendered &&
                c.r.faults == want.faults;
      }
      if (!right) {
        std::lock_guard<std::mutex> lock(mu);
        std::string got;
        if (c.ok && c.r.results.count("total")) {
          const auto& b = c.r.results.at("total");
          got = RenderBinding(b) + "faults " + std::to_string(c.r.faults);
        }
        w->Fail("read: " + (c.ok ? "answer " + got + " differs from the direct run " +
                                       want.rendered + " faults " +
                                       std::to_string(want.faults)
                                 : c.error));
        continue;
      }
      record(c, false, ms);
    }
  };

  const auto active0 = Clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < kWriters; ++i) threads.emplace_back(writer, i);
  for (int i = 0; i < kReaders; ++i) threads.emplace_back(reader, i);
  for (auto& t : threads) t.join();
  const double active = SecondsSince(active0);
  const double tail_wal = FileBytes(storage::WalPath(dir));
  svc->Shutdown(false);  // no final checkpoint: recovery replays the tail
  svc.reset();

  auto scan = storage::ScanWal(storage::WalPath(dir));
  const double replayed = scan.ok() ? static_cast<double>(scan->records.size()) : 0;

  // Recovery, then every acknowledged insert must be back, in order.
  auto fresh = std::make_unique<service::QueryService>();
  const auto r0 = Clock::now();
  {
    ScopedSpan span(spans, "service.EnableDurability");
    st = fresh->EnableDurability(dir);
  }
  const double recovery = SecondsSince(r0);
  if (!st.ok()) {
    w->Fail("recovery: " + st.ToString());
    return;
  }
  auto sid = fresh->OpenSession({});
  std::string text;
  for (int i = 0; i < kWriters; ++i) {
    text += "l" + std::to_string(i) + " := mirror(" + LedgerName(i) + ")\n";
  }
  Call check = sid.ok() ? SubmitAndWait(*fresh, *sid, text, nullptr, 0) : Call{};
  for (int i = 0; i < kWriters; ++i) {
    const auto& want = acked[static_cast<size_t>(i)];
    const bat::Bat* b = nullptr;
    if (check.ok) {
      auto it = check.r.results.find("l" + std::to_string(i));
      if (it != check.r.results.end()) b = std::get_if<bat::Bat>(&it->second);
    }
    bool same = b != nullptr && b->size() == want.size();
    for (size_t k = 0; same && k < want.size(); ++k) {
      // mirror: head is the inserted value, tail the sequence number.
      same = b->head().GetValue(k).AsInt() == want[k].second &&
             b->tail().GetValue(k).AsInt() == want[k].first;
    }
    if (!same) {
      w->Fail(LedgerName(i) + " after recovery does not hold the " +
              std::to_string(want.size()) + " acknowledged inserts in order");
    }
  }
  fresh->Shutdown(false);
  fresh.reset();
  std::filesystem::remove_all(dir, ec);
  // The service released everything the episode held; hand the freed heap
  // back so each episode's peak starts from the same resident set instead
  // of from whatever the allocator kept.
  malloc_trim(0);

  std::lock_guard<std::mutex> lock(mu);
  w->wal_bytes += tail_wal;
  w->replayed += replayed;
  w->recovery_s.push_back(recovery);
  w->active_s += active;
  ++w->episodes;
}

Window Measure(const Setup& s, const Options& opt, double seconds,
               uint64_t first_episode, bool traced, SpanLog* spans) {
  Window w;
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  uint64_t episode = first_episode;
  while (SecondsSince(start) < seconds || w.episodes == 0) {
    Episode(s, opt, episode++, traced, spans, &w);
    if (w.failed > 0 && w.episodes == 0) break;
  }
  w.elapsed_s = SecondsSince(start);
  w.cpu_s = CpuSeconds() - cpu0;
  return w;
}

std::map<std::string, double> EndToEnd(const Window& w, double setup_s) {
  const double requests =
      static_cast<double>(w.read_ms.size() + w.commit_ms.size());
  return {
      {"setup_s", setup_s},
      {"power_geomean_ms", GeoMean({Median(w.read_ms), Median(w.commit_ms)})},
      {"latency_p50_ms", Quantile(w.read_ms, 0.5)},
      {"latency_p90_ms", Quantile(w.read_ms, 0.90)},
      {"throughput_qps", w.active_s > 0 ? requests / w.active_s : 0},
      {"rss_peak_mb", PeakRssMb()},
  };
}

void Describe(const Window& w) {
  std::printf("episodes %llu, commits %llu\n",
              static_cast<unsigned long long>(w.episodes),
              static_cast<unsigned long long>(w.commits));
  std::printf("read   %s\n", DescribeLatency(w.read_ms).c_str());
  std::printf("commit %s\n", DescribeLatency(w.commit_ms).c_str());
  std::printf("recovery median %.4f s, checkpoint median %.2f ms\n",
              Median(w.recovery_s), Median(w.sync_ms));
}

}  // namespace

RunResult RunDurableIngest(const Options& opt, SpanLog* spans) {
  RunResult result;
  result.env["scale_factor"] = std::to_string(kScaleFactor);
  result.env["degree"] = std::to_string(kDegree);
  result.env["clients"] = std::to_string(kWriters) + " writers + " +
                          std::to_string(kReaders) + " readers";
  result.env["fsync_policy"] =
      "fsync per durable commit (WAL group commit), checkpoint: write-temp, "
      "fsync, rename, fsync-dir";
  result.env["episode"] = std::to_string(kRounds) + " rounds x " +
                          std::to_string(kRoundCommits) +
                          " commits per writer + " +
                          std::to_string(kTailCommits) + " tail commits";

  std::vector<double> setup_s, gen_s, load_s;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    s = DoSetup(opt, i + 1 == kSetups ? spans : nullptr, &result);
    if (!s) return result;
    setup_s.push_back(s->total_s);
    gen_s.push_back(s->generate_s);
    load_s.push_back(s->load_s);
  }
  std::printf("setup: median %.3f s (generate %.3f, load %.3f, checkpoint "
              "%.3f)\n",
              Median(setup_s), Median(gen_s), Median(load_s), s->checkpoint_s);
  CheckTexts(s->data, s->inst, true, &result);
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
    Window w = Measure(*s, opt, opt.seconds, 0, false, nullptr);
    finish(w);
    for (const auto& [k, v] : EndToEnd(w, Median(setup_s))) m[k] = v;
    Describe(w);
    return result;
  }
  Window plain = Measure(*s, opt, opt.seconds / 2, 0, false, nullptr);
  finish(plain);
  Window w = Measure(*s, opt, opt.seconds / 2, 1000, true, spans);
  finish(w);
  const auto plain_e2e =
      EndToEnd(plain, Median({setup_s.begin(), setup_s.end() - 1}));
  for (const auto& [k, v] : EndToEnd(w, setup_s.back())) {
    m["trace.overhead." + k] = v - plain_e2e.at(k);
  }
  Describe(w);
  const double commits = static_cast<double>(w.commits);
  const double requests =
      static_cast<double>(w.read_ms.size() + w.commit_ms.size());
  m["tpcd.generate_s"] = Median(gen_s);
  m["tpcd.load_s"] = Median(load_s);
  m["tpcd.load_bulk_s"] = s->inst->stats.bulk_load_sec;
  m["tpcd.load_accel_s"] = s->inst->stats.accel_sec;
  m["tpcd.load_reorder_s"] = s->inst->stats.reorder_sec;
  m["storage.faults"] = Mean(w.read_faults);
  m["storage.wal_bytes_per_commit"] = commits > 0 ? w.wal_bytes / commits : 0;
  m["storage.write_amp"] =
      commits > 0 ? (w.wal_bytes + w.checkpoint_bytes) /
                        (commits * kUserBytesPerInsert)
                  : 0;
  m["storage.checkpoint_ms"] = Mean(w.sync_ms);
  m["storage.checkpoint_mb"] = Mean(w.checkpoint_mb);
  m["storage.wal_records_replayed"] =
      w.episodes > 0 ? w.replayed / static_cast<double>(w.episodes) : 0;
  m["storage.commit_p50_ms"] = Quantile(w.commit_ms, 0.5);
  m["storage.commit_p99_ms"] = Quantile(w.commit_ms, 0.99);
  m["client.latency_p99_ms"] = Quantile(w.read_ms, 0.99);
  m["storage.commits_per_s"] = w.active_s > 0 ? commits / w.active_s : 0;
  m["storage.recovery_s"] = Median(w.recovery_s);
  m["common.cpu_util"] = w.cpu_s / w.elapsed_s;
  m["service.submit_ms"] = Mean(w.submit_ms);
  m["service.wait_ms"] = Mean(w.wait_ms);
  m["service.run_ms"] = Mean(w.run_ms);
  m["service.queue_ms"] = Mean(w.wait_ms) - Mean(w.run_ms);
  m["service.queued_ratio"] = requests > 0 ? w.queued / requests : 0;
  m["service.cost_over_faults"] =
      w.cost_over_faults.empty()
          ? 0
          : *std::min_element(w.cost_over_faults.begin(),
                              w.cost_over_faults.end());
  m["service.commit_wait_ms"] = Mean(w.commit_wait_ms);
  w.kernel.Report(&result, requests);
  return result;
}

}  // namespace perfbench
