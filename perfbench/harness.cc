// The webevo benchmark harness: runs one named crawl workload against
// the library's public API from a single process, checks its outputs,
// and prints every metric by name and unit. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Untraced (--trace 0) runs report the end-to-end metrics. A traced run
// (--trace 1) alternates untraced and traced repetitions: the traced
// ones record a span around every library call the harness makes, run
// the layer probes at fixed points, and report the per-layer metrics
// plus the tracing overhead; the spans of the first traced repetition
// are written as Chrome trace-event JSON.
//
// Usage (normally through perfbench/run.py, which builds this first):
//   webevo_perfbench --workload <name> [--seed N] [--seconds N]
//       [--trace 0|1] [--scale X] [--days X] [--shards N]
//       [--body-bytes N] [--capacity N] [--ckpt-dir DIR]
// See perfbench/README.md for the workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "args.h"
#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/ranking_module.h"
#include "crawler/sharded_frontier.h"
#include "crawler/snapshot.h"
#include "crawler/update_module.h"
#include "serving/view_builder.h"
#include "serving/view_registry.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "storage/delta_log.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace webevo;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  std::string why;
  bool periodic = false;
  double scale = 1.0;   ///< web size, over the benches' 0.15-scale base
  double days = 60.0;   ///< simulated days crawled per repetition
  int shards = 4;       ///< engine shards (worker threads)
  uint32_t body_bytes = 1;
  std::size_t capacity = 4000;
  std::string faults = "none";
  std::string adversarial = "none";
  bool defense = false;
  /// Per-batch CheckpointIncremental (web included) and view publish,
  /// one reader thread, resume from base + deltas.
  bool durable = false;
  /// RunUntil steps per repetition (durable: one per batch).
  int steps = 4;
  /// Resumes timed per repetition (each one a resume_s sample).
  int resume_trials = 3;
};

std::vector<Workload> Workloads() {
  Workload machinery;
  machinery.name = "incr-machinery";
  machinery.why =
      "optimal-revisit incremental crawler, 1-byte bodies: the crawler's "
      "own machinery (rebalance, refine, plan, lease apply) does the work";
  machinery.days = 30.0;

  Workload content;
  content.name = "periodic-content";
  content.why =
      "periodic batch crawler with shadowing, 16 KB bodies: fetch (body "
      "generation + checksum) does the work; no update/ranking module";
  content.periodic = true;
  content.body_bytes = 16384;

  Workload durable;
  durable.name = "incr-durable-hostile";
  durable.why =
      "spider traps + transient faults with the defense on, incremental "
      "checkpoint and view publish every batch, a reader, then resume";
  durable.days = 6.0;
  durable.shards = 3;  // plus the reader thread: 4 threads in total
  durable.faults = "transient10";
  durable.adversarial = "spider-trap";
  durable.defense = true;
  durable.durable = true;
  durable.resume_trials = 1;  // a resume costs half a crawl here
  return {machinery, content, durable};
}

simweb::WebConfig MakeWebConfig(const Workload& w, uint64_t seed) {
  simweb::WebConfig wc = simweb::WebConfig().Scaled(0.15 * w.scale);
  wc.seed = seed;
  wc.max_site_size = 250;
  wc.page_body_bytes = w.body_bytes;
  // Scenario names are fixed by the workload table, so these cannot fail.
  (void)simweb::ApplyFaultScenario(w.faults, &wc);
  (void)simweb::ApplyAdversarialScenario(w.adversarial, &wc);
  return wc;
}

/// Each seed stands for kWebsPerSeed webs, crawled in turn: a round of
/// repetitions covers all of them, so one web's quirks (site sizes,
/// trap draws) weigh a third as much in every metric.
constexpr int kWebsPerSeed = 3;

uint64_t WebSeed(uint64_t seed, int web) {
  return HashCombine(seed, static_cast<uint64_t>(web));
}

crawler::IncrementalCrawlerConfig MakeIncrementalConfig(const Workload& w) {
  crawler::IncrementalCrawlerConfig c;
  c.collection_capacity = w.capacity;
  // A fast steady crawl (half the collection per day) keeps every
  // one-day batch a few thousand fetches wide.
  c.crawl_rate_pages_per_day = static_cast<double>(w.capacity) / 2.0;
  c.freshness_sample_interval_days = 1.0;
  c.crawl_parallelism = w.shards;
  c.crawl.per_site_delay_days = 1e-4;  // the paper's ~10 seconds
  c.crawl.enforce_politeness = true;
  c.defense_enabled = w.defense;
  c.checkpoint_incremental = w.durable;  // arms delta tracking
  return c;
}

crawler::PeriodicCrawlerConfig MakePeriodicConfig(const Workload& w) {
  crawler::PeriodicCrawlerConfig c;
  c.collection_capacity = w.capacity;
  c.cycle_days = 10.0;
  c.crawl_window_days = 5.0;
  c.shadowing = true;
  c.crawl_parallelism = w.shards;
  c.crawl.per_site_delay_days = 1e-4;
  c.crawl.enforce_politeness = true;
  return c;
}

// -------------------------------------------------------------- checks

/// Counts checked operations and failures. A failure is a non-OK Status
/// from a checked call, or a violated invariant.
struct Checker {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Ok(const Status& st, const std::string& what) {
    ++attempted;
    if (!st.ok()) Fail(what + ": " + st.ToString());
  }
  void Expect(bool cond, const std::string& what) {
    ++attempted;
    if (!cond) Fail(what);
  }
  void Fail(const std::string& what) {
    if (++failed <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
};

// -------------------------------------------------------------- tracing

struct SpanRecord {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = -1;
  int64_t batch = -1;
  int tid = 1;
};

struct CounterRecord {
  double ts_us = 0.0;
  std::vector<std::pair<std::string, double>> values;
};

/// In-memory span recorder for the main thread; the reader thread keeps
/// its own records and hands them over after it is joined. Disabled, it
/// records nothing.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  int Open(const char* name, const char* layer, int64_t batch) {
    if (!enabled_) return -1;
    SpanRecord s;
    s.name = name;
    s.layer = layer;
    s.start_us = NowUs();
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.batch = batch;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void Close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id - 1)].end_us = NowUs();
    stack_.pop_back();
  }
  int current() const { return stack_.empty() ? -1 : stack_.back(); }
  int next_id() const { return static_cast<int>(spans_.size()) + 1; }
  void Adopt(std::vector<SpanRecord> spans) {
    for (SpanRecord& s : spans) {
      s.id = next_id();
      spans_.push_back(std::move(s));
    }
  }
  void Counter(std::vector<std::pair<std::string, double>> values) {
    if (enabled_) counters_.push_back(CounterRecord{NowUs(), std::move(values)});
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<CounterRecord>& counters() const { return counters_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* layer,
       int64_t batch = -1)
      : tracer_(tracer), id_(tracer->Open(name, layer, batch)) {}
  ~Span() { tracer_->Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

bool WriteChromeTrace(const Tracer& tracer, const std::string& path,
                      const std::string& workload, uint64_t seed) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
      << JsonEscape(workload) << "\",\"seed\":" << seed
      << "},\"traceEvents\":[\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"harness\"}},\n"
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
         "\"args\":{\"name\":\"reader\"}}";
  char buf[128];
  for (const SpanRecord& s : tracer.spans()) {
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", s.start_us,
                  std::max(0.0, s.end_us - s.start_us));
    out << ",\n{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\""
        << JsonEscape(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << buf << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"batch\":" << s.batch << "}}";
  }
  for (const CounterRecord& c : tracer.counters()) {
    std::snprintf(buf, sizeof(buf), "%.3f", c.ts_us);
    out << ",\n{\"name\":\"engine phases (cumulative s)\",\"ph\":\"C\","
           "\"pid\":1,\"tid\":1,\"ts\":"
        << buf << ",\"args\":{";
    for (std::size_t i = 0; i < c.values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.9g", c.values[i].second);
      out << (i ? "," : "") << "\"" << c.values[i].first << "\":" << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- stats

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

std::size_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(n);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----------------------------------------------------------- one rep

/// Everything one repetition measures. Times are wall-clock seconds.
struct Rep {
  int web = 0;  ///< which of the seed's webs this repetition crawled
  double setup_s = 0.0;
  double bootstrap_s = 0.0;
  double crawl_s = 0.0;      ///< RunUntil (+ checkpoints, publishes)
  double run_until_s = 0.0;  ///< RunUntil alone
  std::vector<double> resume_s;  ///< one per resume trial
  uint64_t crawls = 0;
  // Deterministic at a seed.
  double freshness = 0.0;
  double age_days = 0.0;
  double ckpt_bytes_per_batch = 0.0;
  double useful_fetch_share = 0.0;
  // Engine ledger over the RunUntil calls.
  double plan_s = 0.0, overlap_s = 0.0, fetch_s = 0.0, apply_s = 0.0,
         barrier_s = 0.0, measure_s = 0.0, publish_s = 0.0;
  double lease_revocations = 0.0;
  uint64_t engine_fetches = 0, engine_fetch_failures = 0;
  uint64_t engine_batches = 0;
  // Defense and fault ledger.
  uint64_t wasted = 0, throttled = 0, suppressed = 0, fetch_failures = 0,
           quarantined = 0;
  // Snapshot and serving layers.
  std::vector<double> save_s;
  double segment_bytes = 0.0;
  std::map<std::string, double> section_bytes;  ///< mean per segment
  double final_measure_s = 0.0;
  uint64_t reads = 0;
  std::vector<double> acquire_ns;
  // Layer probes (traced repetitions only), one sample per probe point.
  std::vector<double> rebalance_s, on_crawled_ns, refine_s, plan_slots_s,
      fetch_ns, checksum_mb_per_s, build_view_s;
};

/// Sample of collection URLs the probes work on (ascending identity).
template <typename CollectionT>
std::vector<simweb::Url> SampleUrls(const CollectionT& coll, std::size_t n) {
  std::vector<simweb::Url> urls;
  coll.ForEachCanonical([&](const crawler::CollectionEntry& e) {
    if (urls.size() < n) urls.push_back(e.url);
  });
  return urls;
}

/// Fetch + checksum probe on a private copy of the web (same config,
/// so the same URLs resolve), never on the crawled web.
void ProbeSimweb(simweb::SimulatedWeb* probe_web,
                 const std::vector<simweb::Url>& urls, double t, Rep* rep) {
  std::vector<simweb::FetchResult> ok;
  ok.reserve(urls.size());
  Clock::time_point begin = Clock::now();
  for (const simweb::Url& url : urls) {
    auto r = probe_web->Fetch(url, t);
    if (r.ok()) ok.push_back(std::move(r).value());
  }
  if (!urls.empty()) {
    rep->fetch_ns.push_back(SecondsSince(begin) * 1e9 /
                            static_cast<double>(urls.size()));
  }
  std::vector<std::string> bodies;
  bodies.reserve(ok.size());
  std::size_t bytes = 0;
  for (const simweb::FetchResult& r : ok) {
    bodies.push_back(probe_web->PageBody(r.page, r.version));
    bytes += bodies.back().size();
  }
  uint64_t sink = 0;
  begin = Clock::now();
  for (const std::string& b : bodies) sink += ChecksumOf(b).hi;
  const double secs = SecondsSince(begin);
  asm volatile("" : : "r"(sink));  // the checksums count as used
  if (bytes > 0 && secs > 0.0) {
    rep->checksum_mb_per_s.push_back(static_cast<double>(bytes) / 1e6 /
                                     secs);
  }
}

void TimeUpdateModule(crawler::UpdateModule& module,
                      const std::vector<simweb::Url>& urls, double now,
                      Tracer* tr, Rep* rep) {
  Clock::time_point begin = Clock::now();
  {
    Span s(tr, "UpdateModule::Rebalance", "freshness/revisit_optimizer");
    module.Rebalance();
  }
  rep->rebalance_s.push_back(SecondsSince(begin));
  begin = Clock::now();
  {
    Span s(tr, "UpdateModule::OnCrawled", "crawler/update_module");
    for (const simweb::Url& url : urls) module.OnCrawled(url, now, false, false);
  }
  if (!urls.empty()) {
    rep->on_crawled_ns.push_back(SecondsSince(begin) * 1e9 /
                                 static_cast<double>(urls.size()));
  }
}

template <typename CollectionT>
void TimeRefine(const crawler::RankingModuleConfig& config,
                const crawler::AllUrls& all, CollectionT& coll, Tracer* tr,
                Rep* rep) {
  crawler::RankingModule ranking(config);
  Clock::time_point begin = Clock::now();
  {
    Span s(tr, "RankingModule::Refine", "crawler/ranking_module");
    ranking.Refine(all, coll);
  }
  rep->refine_s.push_back(SecondsSince(begin));
}

/// Plans one batch as RunUntil does: a slot every `step` days from
/// `start` up to the next housekeeping event, a day later.
void TimePlanSlots(crawler::ShardedFrontier& frontier, double start,
                   double step, ThreadPool* pool, Tracer* tr, Rep* rep) {
  Clock::time_point begin = Clock::now();
  {
    Span s(tr, "ShardedFrontier::PlanSlots", "crawler/sharded_frontier");
    frontier.PlanSlots(start, start + 1.0, step, pool);
  }
  rep->plan_slots_s.push_back(SecondsSince(begin));
}

template <typename CrawlerT>
void TimeBuildView(const CrawlerT& live, Tracer* tr, Rep* rep) {
  Span span(tr, "serving::BuildBatchView", "serving");
  Clock::time_point begin = Clock::now();
  auto view = serving::BuildBatchView(live);
  rep->build_view_s.push_back(SecondsSince(begin));
}

/// Layer probes on modules restored from the live crawler's own public
/// snapshot streams; the live crawler is only read.
void ProbeIncremental(const crawler::IncrementalCrawler& live,
                      const crawler::IncrementalCrawlerConfig& config,
                      simweb::SimulatedWeb* probe_web, ThreadPool* pool,
                      Tracer* tr, Checker* check, Rep* rep) {
  const int shards = config.crawl_parallelism;
  const std::vector<simweb::Url> urls = SampleUrls(live.collection(), 1000);
  {
    Span span(tr, "probe.update", "crawler/update_module");
    std::stringstream ss;
    check->Ok(crawler::SaveUpdateModule(live.update_module(), ss),
              "SaveUpdateModule");
    crawler::UpdateModule module(live.update_module().config());
    check->Ok(crawler::LoadUpdateModule(ss, &module), "LoadUpdateModule");
    TimeUpdateModule(module, urls, live.now(), tr, rep);
  }
  {
    Span span(tr, "probe.ranking", "crawler/ranking_module");
    std::stringstream urls_ss, coll_ss;
    check->Ok(crawler::SaveAllUrls(live.all_urls(), urls_ss), "SaveAllUrls");
    check->Ok(crawler::SaveCollection(live.collection(), coll_ss),
              "SaveCollection");
    auto all = crawler::LoadAllUrls(urls_ss, shards);
    auto coll = crawler::LoadShardedCollection(coll_ss, shards);
    check->Ok(all.status(), "LoadAllUrls");
    check->Ok(coll.status(), "LoadShardedCollection");
    if (all.ok() && coll.ok()) {
      TimeRefine(live.ranking_module().config(), all.value(), coll.value(),
                 tr, rep);
    }
  }
  {
    Span span(tr, "probe.frontier", "crawler/sharded_frontier");
    std::stringstream ss;
    check->Ok(crawler::SaveFrontier(live.coll_urls(), ss), "SaveFrontier");
    auto frontier = crawler::LoadFrontier(ss, shards);
    check->Ok(frontier.status(), "LoadFrontier");
    if (frontier.ok()) {
      TimePlanSlots(frontier.value(), live.now(),
                    1.0 / config.crawl_rate_pages_per_day, pool, tr, rep);
    }
  }
  {
    Span span(tr, "probe.simweb", "simweb");
    ProbeSimweb(probe_web, urls, live.now(), rep);
  }
  TimeBuildView(live, tr, rep);
}

/// The periodic crawler keeps no UpdateModule, AllUrls or frontier heap,
/// so those probes run on modules built from a restored copy of its
/// collection: what the incremental crawler's modules would hold for
/// the same pages. The live crawler is only read.
void ProbePeriodic(const crawler::PeriodicCrawler& live,
                   const crawler::PeriodicCrawlerConfig& config,
                   simweb::SimulatedWeb* probe_web, ThreadPool* pool,
                   Tracer* tr, Checker* check, Rep* rep) {
  const int shards = config.crawl_parallelism;
  const double step =
      config.crawl_window_days / static_cast<double>(config.collection_capacity);
  const std::vector<simweb::Url> urls =
      SampleUrls(live.current_collection(), 1000);
  std::stringstream ss;
  check->Ok(crawler::SaveCollection(live.current_collection(), ss),
            "SaveCollection");
  auto coll = crawler::LoadCollection(ss);
  check->Ok(coll.status(), "LoadCollection");
  if (coll.ok()) {
    {
      Span span(tr, "probe.update", "crawler/update_module");
      crawler::UpdateModuleConfig update;
      update.crawl_budget_pages_per_day = 1.0 / step;
      update.num_shards = shards;
      crawler::UpdateModule module(update);
      coll.value().ForEachCanonical([&](const crawler::CollectionEntry& e) {
        module.OnCrawled(e.url, e.crawled_at, false, true);
      });
      TimeUpdateModule(module, urls, live.now(), tr, rep);
    }
    {
      Span span(tr, "probe.ranking", "crawler/ranking_module");
      crawler::AllUrls all(shards);
      coll.value().ForEachCanonical([&](const crawler::CollectionEntry& e) {
        all.Add(e.url, e.crawled_at);
        for (const simweb::Url& link : e.links) all.NoteInLink(link, e.crawled_at);
      });
      TimeRefine(crawler::RankingModuleConfig{}, all, coll.value(), tr, rep);
    }
  }
  {
    Span span(tr, "probe.frontier", "crawler/sharded_frontier");
    crawler::ShardedFrontier frontier(shards);
    double when = live.now();
    live.current_collection().ForEachCanonical(
        [&](const crawler::CollectionEntry& e) {
          frontier.Schedule(e.url, when);
          when += step;
        });
    TimePlanSlots(frontier, live.now(), step, pool, tr, rep);
  }
  {
    Span span(tr, "probe.simweb", "simweb");
    ProbeSimweb(probe_web, urls, live.now(), rep);
  }
  TimeBuildView(live, tr, rep);
}

/// Uncontended reads of the view the harness just published: the read
/// side of the workloads without a reader thread. One sample is the
/// mean of a block of reads, finer than the clock's nanosecond ticks.
void TimeAcquires(serving::ViewRegistry& views, Tracer* tr, Checker* check,
                  Rep* rep) {
  constexpr int kBlocks = 100;
  constexpr int kReadsPerBlock = 10;
  bool all_found = true;
  for (int b = 0; b < kBlocks; ++b) {
    Span s(tr, "ViewRegistry::AcquireRef x10", "serving");
    Clock::time_point begin = Clock::now();
    for (int i = 0; i < kReadsPerBlock; ++i) {
      serving::ViewRef view = views.AcquireRef();
      all_found = all_found && view &&
                  view->collection_size <= view->collection_capacity;
    }
    rep->acquire_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - begin)
            .count() /
        kReadsPerBlock);
  }
  rep->reads += kBlocks * kReadsPerBlock;
  check->Expect(all_found, "every read after the publish finds a valid view");
}

template <typename CrawlerT>
void RecordEngine(const CrawlerT& c, Rep* rep) {
  const crawler::ShardedCrawlEngine::Stats& es = c.engine().stats();
  rep->plan_s = es.plan_seconds.sum();
  rep->overlap_s =
      es.measure_overlap_seconds.sum() + es.plan_overlap_seconds.sum();
  rep->fetch_s = es.fetch_seconds.sum();
  rep->apply_s = es.apply_seconds.sum();
  rep->barrier_s = es.apply_barrier_seconds.sum();
  rep->measure_s = es.measure_seconds.sum();
  rep->publish_s = es.publish_seconds.sum();
  rep->lease_revocations = es.lease_revocations.sum();
  rep->engine_fetches = es.fetches;
  rep->engine_fetch_failures = es.fetch_failures;
  rep->engine_batches = es.batches;
}

void EngineCounter(const crawler::ShardedCrawlEngine::Stats& es, Tracer* tr) {
  tr->Counter({{"plan", es.plan_seconds.sum()},
               {"fetch", es.fetch_seconds.sum()},
               {"apply", es.apply_seconds.sum()},
               {"measure", es.measure_seconds.sum()}});
}

template <typename CrawlerT>
std::string SaveBytes(const CrawlerT& c, Checker* check) {
  std::ostringstream out;
  check->Ok(crawler::SaveCrawler(c, out), "SaveCrawler");
  return out.str();
}

/// Resumes the checkpoint just written for `live` into a fresh web and
/// crawler, `trials` times (one resume_s sample each). The first
/// restored crawler must re-save to exactly the live crawler's bytes.
template <typename CrawlerT, typename ConfigT, typename LoadFn>
void Resume(const CrawlerT& live, const simweb::WebConfig& wc,
            const ConfigT& config, int trials, const char* load_name,
            LoadFn load, Tracer* tr, Checker* check, Rep* rep) {
  Span span(tr, "resume", "harness");
  const std::string live_bytes = SaveBytes(live, check);
  for (int i = 0; i < trials; ++i) {
    simweb::SimulatedWeb web(wc);
    CrawlerT resumed(&web, config);
    Clock::time_point begin = Clock::now();
    Status loaded;
    {
      Span s(tr, load_name, "crawler/snapshot");
      loaded = load(&resumed);
    }
    rep->resume_s.push_back(SecondsSince(begin));
    check->Ok(loaded, "resume");
    if (i == 0) {
      check->Expect(loaded.ok() && SaveBytes(resumed, check) == live_bytes,
                    "resumed crawler re-saves to the live crawler's bytes");
    }
  }
}

/// Mean bytes per delta segment, and per section of a segment, read
/// back through the storage layer.
void RecordDeltaSections(const std::string& log_path, Checker* check,
                         Rep* rep) {
  auto log = storage::ReadDeltaLog(log_path);
  check->Ok(log.status(), "ReadDeltaLog");
  if (!log.ok() || log.value().segments.empty()) return;
  const double n = static_cast<double>(log.value().segments.size());
  for (const storage::DeltaSegment& seg : log.value().segments) {
    rep->segment_bytes +=
        static_cast<double>(storage::EncodeDeltaSegment(seg).size()) / n;
    for (const storage::DeltaSection& sec : seg.sections) {
      rep->section_bytes[sec.name] += static_cast<double>(sec.bytes.size()) / n;
    }
  }
}

/// The reader of incr-durable-hostile: a closed loop that acquires the
/// newest view, reads it, releases it and pauses before the next read.
class Reader {
 public:
  Reader(serving::ViewRegistry* views, bool timed, Tracer* tracer,
         int parent)
      : views_(views), timed_(timed), tracer_(tracer), parent_(parent),
        thread_([this] { Loop(); }) {}
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Published() { published_.store(true, std::memory_order_release); }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after Stop().
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t reads() const { return reads_; }
  std::vector<double>& acquire_ns() { return acquire_ns_; }
  std::vector<SpanRecord>& spans() { return spans_; }

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      const bool after_publish = published_.load(std::memory_order_acquire);
      const double start_us = timed_ ? tracer_->NowUs() : 0.0;
      Clock::time_point begin = Clock::now();
      serving::ViewRef view = views_->AcquireRef();
      const double ns = std::chrono::duration<double, std::nano>(
                            Clock::now() - begin)
                            .count();
      if (after_publish) {
        ++attempted_;
        // A read after the first publish must find a view, and the view
        // must be self-consistent.
        if (!view || view->collection_size > view->collection_capacity) {
          ++failed_;
        }
      }
      if (view) ++reads_;
      view.reset();
      if (timed_ && after_publish) {
        acquire_ns_.push_back(ns);
        SpanRecord s;
        s.name = "ViewRegistry::AcquireRef";
        s.layer = "serving";
        s.start_us = start_us;
        s.end_us = start_us + ns / 1e3;
        s.parent = parent_;
        s.tid = 2;
        spans_.push_back(std::move(s));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  serving::ViewRegistry* views_;
  bool timed_;
  Tracer* tracer_;
  int parent_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> published_{false};
  uint64_t attempted_ = 0, failed_ = 0, reads_ = 0;
  std::vector<double> acquire_ns_;
  std::vector<SpanRecord> spans_;
  std::thread thread_;  // last: starts after every member it uses
};

template <typename CrawlerT>
constexpr bool kIncremental =
    std::is_same_v<CrawlerT, crawler::IncrementalCrawler>;

template <typename CrawlerT>
auto MakeConfig(const Workload& w) {
  if constexpr (kIncremental<CrawlerT>) {
    return MakeIncrementalConfig(w);
  } else {
    return MakePeriodicConfig(w);
  }
}

template <typename CrawlerT>
std::size_t CollectionSize(const CrawlerT& c) {
  if constexpr (kIncremental<CrawlerT>) {
    return c.collection().size();
  } else {
    return c.current_collection().size();
  }
}

/// One repetition: set up a web and a crawler, crawl `w.days` in RunUntil
/// steps (durable: checkpoint and publish after every one-batch step),
/// checkpoint, resume, and measure. Traced, it also runs the probes.
template <typename CrawlerT>
Rep RunRep(const Workload& w, uint64_t seed, const std::string& path,
           bool traced, Tracer* tr, Checker* check) {
  Rep rep;
  const simweb::WebConfig wc = MakeWebConfig(w, seed);
  const auto config = MakeConfig<CrawlerT>(w);
  crawler::CrawlerCheckpointOptions ckpt;  // web included: fresh-process resume
  Span rep_span(tr, "repetition", "harness");

  std::unique_ptr<simweb::SimulatedWeb> web;
  std::unique_ptr<CrawlerT> crawl;
  Clock::time_point begin = Clock::now();
  {
    Span s(tr, "setup", "harness");
    {
      Span s2(tr, "SimulatedWeb", "simweb");
      web = std::make_unique<simweb::SimulatedWeb>(wc);
    }
    {
      Span s2(tr, "crawler construction", "crawler");
      crawl = std::make_unique<CrawlerT>(web.get(), config);
    }
    Clock::time_point b = Clock::now();
    {
      Span s2(tr, "Bootstrap", "crawler");
      check->Ok(crawl->Bootstrap(0.0), "Bootstrap");
    }
    rep.bootstrap_s = SecondsSince(b);
  }
  rep.setup_s = SecondsSince(begin);

  // Probe-only state, outside the set-up time: a private web for the
  // fetch probe and a pool for the frontier probe.
  std::unique_ptr<simweb::SimulatedWeb> probe_web;
  std::unique_ptr<ThreadPool> probe_pool;
  if (traced) {
    probe_web = std::make_unique<simweb::SimulatedWeb>(wc);
    probe_pool = std::make_unique<ThreadPool>(w.shards);
  }

  std::unique_ptr<Reader> reader;
  int checkpoints = 0;
  {
    Span crawl_span(tr, "crawl", "harness");
    if (w.durable) {
      reader = std::make_unique<Reader>(&crawl->views(), traced, tr,
                                        tr->current());
    }
    const int steps = w.durable ? static_cast<int>(std::lround(w.days))
                                : w.steps;
    for (int i = 1; i <= steps; ++i) {
      Clock::time_point b = Clock::now();
      {
        Span s(tr, "RunUntil", "crawler", i);
        check->Ok(crawl->RunUntil(w.days * i / steps), "RunUntil");
      }
      const double run_s = SecondsSince(b);
      rep.run_until_s += run_s;
      rep.crawl_s += run_s;
      if constexpr (kIncremental<CrawlerT>) {
        if (w.durable) {
          b = Clock::now();
          {
            Span s(tr, "CheckpointIncremental", "crawler/snapshot", i);
            check->Ok(crawler::CheckpointIncremental(crawl.get(), path, ckpt),
                      "CheckpointIncremental");
          }
          const double save_s = SecondsSince(b);
          rep.save_s.push_back(save_s);
          ++checkpoints;
          b = Clock::now();
          {
            Span s(tr, "PublishViewNow", "serving", i);
            crawl->PublishViewNow();
          }
          reader->Published();
          rep.crawl_s += save_s + SecondsSince(b);
        }
      }
      check->Expect(crawl->stats().crawls == crawl->engine().stats().fetches,
                    "stats().crawls == engine().stats().fetches");
      check->Expect(CollectionSize(*crawl) <= config.collection_capacity,
                    "collection size <= capacity");
      if (traced) {
        EngineCounter(crawl->engine().stats(), tr);
        const bool probe_point =
            w.durable ? (i == steps / 4 || i == steps / 2 ||
                         i == 3 * steps / 4)
                      : i < steps;
        if (probe_point) {
          Span s(tr, "probes", "harness", i);
          if constexpr (kIncremental<CrawlerT>) {
            ProbeIncremental(*crawl, config, probe_web.get(),
                             probe_pool.get(), tr, check, &rep);
          } else {
            ProbePeriodic(*crawl, config, probe_web.get(), probe_pool.get(),
                          tr, check, &rep);
          }
        }
      }
    }
    if (reader) {
      reader->Stop();
      check->attempted += reader->attempted();
      check->failed += reader->failed();
      if (reader->failed() > 0) {
        std::fprintf(stderr, "check failed: %llu reads found no valid view\n",
                     static_cast<unsigned long long>(reader->failed()));
      }
      rep.reads = reader->reads();
      rep.acquire_ns = std::move(reader->acquire_ns());
      if (traced) tr->Adopt(std::move(reader->spans()));
    }
  }
  if (!w.durable) {
    // One closing publish, outside the crawl time, so the serving layer
    // is measured on every workload.
    {
      Span s(tr, "PublishViewNow", "serving");
      crawl->PublishViewNow();
    }
    if (traced) TimeAcquires(crawl->views(), tr, check, &rep);
  }
  RecordEngine(*crawl, &rep);
  const auto& st = crawl->stats();
  rep.crawls = st.crawls;
  rep.fetch_failures = st.fetch_failures;
  if constexpr (kIncremental<CrawlerT>) {
    rep.wasted = st.wasted_fetches;
    rep.throttled = st.trap_sites_throttled;
    rep.suppressed = st.duplicate_urls_suppressed;
    rep.quarantined = st.sites_quarantined;
  }
  // The periodic crawler keeps no duplicate-content ledger (wasted stays
  // 0): every fetch counts as useful.
  rep.useful_fetch_share =
      rep.crawls > 0 ? 1.0 - static_cast<double>(rep.wasted) /
                                 static_cast<double>(rep.crawls)
                     : 0.0;

  // The durable workload's checkpoint is the base + delta log it wrote
  // every batch; the others checkpoint once, a full image at the end.
  if (w.durable) {
    const std::size_t bytes = FileBytes(path) + FileBytes(path + ".deltas");
    rep.ckpt_bytes_per_batch =
        checkpoints > 0 ? static_cast<double>(bytes) / checkpoints : 0.0;
    if (traced) RecordDeltaSections(path + ".deltas", check, &rep);
  } else {
    Clock::time_point b = Clock::now();
    {
      Span s(tr, "SaveCrawlerToFile", "crawler/snapshot");
      check->Ok(crawler::SaveCrawlerToFile(*crawl, path, ckpt),
                "SaveCrawlerToFile");
    }
    rep.save_s.push_back(SecondsSince(b));
    // One checkpointed batch: the last.
    rep.ckpt_bytes_per_batch = static_cast<double>(FileBytes(path));
  }

  Resume(*crawl, wc, config, w.resume_trials,
         w.durable ? "LoadCrawlerWithDeltasFromFile" : "LoadCrawlerFromFile",
         [&](CrawlerT* resumed) {
           if constexpr (kIncremental<CrawlerT>) {
             if (w.durable) {
               return crawler::LoadCrawlerWithDeltasFromFile(path, resumed);
             }
           }
           return crawler::LoadCrawlerFromFile(path, resumed);
         },
         tr, check, &rep);

  Clock::time_point b = Clock::now();
  crawler::CollectionQuality q;
  {
    Span s(tr, "MeasureNow", "simweb");
    q = crawl->MeasureNow();
  }
  rep.final_measure_s = SecondsSince(b);
  rep.age_days = q.mean_stale_age_days;
  rep.freshness = crawl->tracker().TimeAverage(w.days / 2.0, w.days);
  check->Expect(std::isfinite(rep.freshness) && rep.freshness > 0.0 &&
                    rep.freshness <= 1.0,
                "freshness in (0, 1]");
  return rep;
}

/// One extra set-up — web, crawler, Bootstrap(0) — timed like a
/// repetition's and then discarded; setup_s is the median of many.
template <typename CrawlerT>
double TimeSetup(const Workload& w, const simweb::WebConfig& wc,
                 Checker* check) {
  Clock::time_point begin = Clock::now();
  simweb::SimulatedWeb web(wc);
  CrawlerT crawl(&web, MakeConfig<CrawlerT>(w));
  check->Ok(crawl.Bootstrap(0.0), "Bootstrap");
  return SecondsSince(begin);
}

// ------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Pps(const Rep& r) {
  return r.crawl_s > 0.0 ? static_cast<double>(r.crawls) / r.crawl_s : 0.0;
}

template <typename F>
double MedianOf(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return Median(v);
}

/// Median of a per-repetition sample list, pooled over repetitions.
double Pooled(const std::vector<Rep>& reps, std::vector<double> Rep::*field) {
  std::vector<double> all;
  for (const Rep& r : reps) {
    all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  }
  return Median(all);
}

/// Mean over the first round (one repetition per web) of a quantity
/// that is deterministic at a seed.
template <typename F>
double RoundMean(const std::vector<Rep>& reps, F f) {
  double sum = 0.0;
  for (int i = 0; i < kWebsPerSeed; ++i) sum += f(reps[i]);
  return sum / kWebsPerSeed;
}

std::vector<Metric> EndToEnd(const std::vector<Rep>& reps,
                             std::vector<double> setups) {
  for (const Rep& r : reps) setups.push_back(r.setup_s);
  return {
      {"crawl_pages_per_s", MedianOf(reps, Pps), "pages/s"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"freshness", RoundMean(reps, [](const Rep& r) { return r.freshness; }),
       "fraction"},
      {"age_days", RoundMean(reps, [](const Rep& r) { return r.age_days; }),
       "days"},
      {"checkpoint_bytes_per_batch",
       RoundMean(reps, [](const Rep& r) { return r.ckpt_bytes_per_batch; }),
       "bytes"},
      {"resume_s", Pooled(reps, &Rep::resume_s), "s"},
      {"useful_fetch_share",
       RoundMean(reps, [](const Rep& r) { return r.useful_fetch_share; }),
       "fraction"},
  };
}

/// Per-layer metrics from the traced repetitions; `untraced` supplies
/// the base of the tracing overhead.
std::vector<Metric> PerLayer(const std::vector<Rep>& traced,
                             const std::vector<Rep>& untraced) {
  auto med = [&](auto f) { return MedianOf(traced, f); };
  auto mean = [&](auto f) { return RoundMean(traced, f); };
  auto probe = [&](std::vector<double> Rep::*field) {
    return Pooled(traced, field);
  };
  std::vector<double> save_all, acquire_all;
  double reads = 0.0;
  for (const Rep& r : traced) {
    save_all.insert(save_all.end(), r.save_s.begin(), r.save_s.end());
    acquire_all.insert(acquire_all.end(), r.acquire_ns.begin(),
                       r.acquire_ns.end());
    reads += static_cast<double>(r.reads);
  }
  const double run_s = med([](const Rep& r) { return r.run_until_s; });
  const double unattributed = med([](const Rep& r) {
    return r.run_until_s - (r.plan_s + r.fetch_s + r.apply_s + r.measure_s);
  });
  const double base_pps = MedianOf(untraced, Pps);
  std::vector<Metric> m = {
      {"engine.plan_s", med([](const Rep& r) { return r.plan_s; }), "s"},
      {"engine.overlap_s", med([](const Rep& r) { return r.overlap_s; }), "s"},
      {"engine.apply_s", med([](const Rep& r) { return r.apply_s; }), "s"},
      {"engine.apply_barrier_s", med([](const Rep& r) { return r.barrier_s; }),
       "s"},
      {"engine.lease_revocations",
       mean([](const Rep& r) { return r.lease_revocations; }), "count"},
      {"engine.fetch_s", med([](const Rep& r) { return r.fetch_s; }), "s"},
      {"engine.fetches", mean([](const Rep& r) { return 1.0 * r.engine_fetches; }),
       "count"},
      {"engine.fetch_failures",
       mean([](const Rep& r) { return 1.0 * r.engine_fetch_failures; }),
       "count"},
      {"engine.measure_s", med([](const Rep& r) { return r.measure_s; }), "s"},
      {"engine.publish_s", med([](const Rep& r) { return r.publish_s; }), "s"},
      {"engine.batches", mean([](const Rep& r) { return 1.0 * r.engine_batches; }),
       "count"},
      {"crawler.run_s", run_s, "s"},
      {"crawler.unattributed_s", unattributed, "s"},
      {"crawler.unattributed_share", run_s > 0.0 ? unattributed / run_s : 0.0,
       "fraction"},
      {"crawler.bootstrap_s", med([](const Rep& r) { return r.bootstrap_s; }),
       "s"},
      {"update.rebalance_s", probe(&Rep::rebalance_s), "s"},
      {"update.on_crawled_ns", probe(&Rep::on_crawled_ns), "ns"},
      {"ranking.refine_s", probe(&Rep::refine_s), "s"},
      {"frontier.plan_slots_s", probe(&Rep::plan_slots_s), "s"},
      {"simweb.fetch_ns", probe(&Rep::fetch_ns), "ns"},
      {"simweb.checksum_mb_per_s", probe(&Rep::checksum_mb_per_s), "MB/s"},
      {"simweb.measure_s", med([](const Rep& r) { return r.final_measure_s; }),
       "s"},
      {"snapshot.save_s_p50", Quantile(save_all, 0.5), "s"},
      {"snapshot.save_s_p99", Quantile(save_all, 0.99), "s"},
      {"snapshot.segment_bytes",
       mean([](const Rep& r) { return r.segment_bytes; }), "bytes"},
  };
  for (const char* section :
       {"meta", "dcoll", "dallurls", "dupdate", "dfrontier", "polite",
        "tracker", "pending", "failure", "defense", "dweb"}) {
    m.push_back({std::string("snapshot.section_bytes.") + section,
                 mean([&](const Rep& r) {
                   auto it = r.section_bytes.find(section);
                   return it == r.section_bytes.end() ? 0.0 : it->second;
                 }),
                 "bytes"});
  }
  const double traced_pps = MedianOf(traced, Pps);
  std::vector<Metric> rest = {
      {"snapshot.load_s", Pooled(traced, &Rep::resume_s), "s"},
      {"serving.build_view_s", probe(&Rep::build_view_s), "s"},
      {"serving.acquire_ns_p50", Quantile(acquire_all, 0.5), "ns"},
      {"serving.acquire_ns_p99", Quantile(acquire_all, 0.99), "ns"},
      {"serving.acquire_samples", static_cast<double>(acquire_all.size()),
       "count"},
      {"serving.reads", reads, "count"},
      {"defense.wasted_fetches", mean([](const Rep& r) { return 1.0 * r.wasted; }),
       "count"},
      {"defense.trap_sites_throttled",
       mean([](const Rep& r) { return 1.0 * r.throttled; }), "count"},
      {"defense.duplicate_urls_suppressed",
       mean([](const Rep& r) { return 1.0 * r.suppressed; }), "count"},
      {"faults.fetch_failures",
       mean([](const Rep& r) { return 1.0 * r.fetch_failures; }), "count"},
      {"faults.sites_quarantined",
       mean([](const Rep& r) { return 1.0 * r.quarantined; }), "count"},
      {"trace.overhead_share",
       base_pps > 0.0 ? 1.0 - traced_pps / base_pps : 0.0, "fraction"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// The self time of every span name (duration minus its children's),
/// plus the RunUntil time no engine phase records.
void PrintSelfTimes(const Tracer& tr, const Rep& rep) {
  std::map<int, double> child_us;
  for (const SpanRecord& s : tr.spans()) {
    if (s.parent > 0 && s.tid == 1) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::pair<std::string, std::string>, std::pair<double, int>> self;
  for (const SpanRecord& s : tr.spans()) {
    auto& e = self[{s.layer, s.name}];
    e.first += (s.end_us - s.start_us - child_us[s.id]) / 1e6;
    ++e.second;
  }
  std::printf("# self time by span, first traced repetition:\n");
  std::printf("#   %-26s %-38s %6s %10s\n", "layer", "span", "calls", "self_s");
  for (const auto& [key, e] : self) {
    std::printf("#   %-26s %-38s %6d %10.4f\n", key.first.c_str(),
                key.second.c_str(), e.second, e.first);
  }
  std::printf("#   engine phases inside RunUntil: plan %.4f  fetch %.4f  "
              "apply %.4f  measure %.4f  unattributed %.4f s\n",
              rep.plan_s, rep.fetch_s, rep.apply_s, rep.measure_s,
              rep.run_until_s -
                  (rep.plan_s + rep.fetch_s + rep.apply_s + rep.measure_s));
}

/// Deterministic metrics must repeat exactly between repetitions at one
/// seed, traced or not (the probes must not perturb the simulation).
void CheckRepeat(const Rep& a, const Rep& b, const char* what,
                 Checker* check) {
  check->Expect(a.freshness == b.freshness && a.age_days == b.age_days &&
                    a.ckpt_bytes_per_batch == b.ckpt_bytes_per_batch &&
                    a.useful_fetch_share == b.useful_fetch_share &&
                    a.crawls == b.crawls,
                std::string("deterministic metrics repeat exactly (") + what +
                    ")");
}

void PrintResult(const Checker& check, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              check.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(check.attempted),
              static_cast<unsigned long long>(check.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

constexpr int kSetupTrials = 15;

int Main(int argc, char** argv) {
  Args args;
  const std::string err =
      ParseArgs(std::vector<std::string>(argv + 1, argv + argc), &args);
  if (!err.empty()) {
    std::fprintf(stderr, "webevo_perfbench: %s\n", err.c_str());
    return 2;
  }
  Workload w;
  bool found = false;
  for (const Workload& candidate : Workloads()) {
    if (candidate.name == args.workload) {
      w = candidate;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "webevo_perfbench: unknown workload '%s' (valid:",
                 args.workload.c_str());
    for (const Workload& c : Workloads()) {
      std::fprintf(stderr, " %s", c.name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  if (args.scale) w.scale = *args.scale;
  if (args.days) w.days = *args.days;
  if (args.shards) w.shards = *args.shards;
  if (args.body_bytes) w.body_bytes = *args.body_bytes;
  if (args.capacity) w.capacity = static_cast<std::size_t>(*args.capacity);
  // Freshness averages the second half of the run, sampled daily; the
  // periodic crawler's collection is empty until its first window ends.
  const double min_days =
      w.periodic ? 2.0 * MakePeriodicConfig(w).crawl_window_days : 4.0;
  if (w.days < min_days) {
    std::fprintf(stderr, "webevo_perfbench: %s needs --days >= %g\n",
                 w.name.c_str(), min_days);
    return 2;
  }
  const Status valid = MakeWebConfig(w, args.seed).Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "webevo_perfbench: %s\n", valid.ToString().c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(args.ckpt_dir, ec);
  if (ec) {
    std::fprintf(stderr, "webevo_perfbench: cannot create %s\n",
                 args.ckpt_dir.c_str());
    return 2;
  }
  const std::string path = args.ckpt_dir + "/" + w.name + "-" +
                           std::to_string(getpid()) + ".ckpt";
  const std::string trace_out =
      (std::filesystem::path(args.ckpt_dir).parent_path() /
       ("trace-" + w.name + "-" + std::to_string(args.seed) + ".json"))
          .string();

  std::printf("# workload %s: %s\n", w.name.c_str(), w.why.c_str());
  std::printf("# nproc %u, seed %llu, shards %d, scale %g, days %g, "
              "capacity %zu, body bytes %u, faults %s, adversarial %s, "
              "checkpoint dir %s, trace %d\n",
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(args.seed), w.shards, w.scale,
              w.days, w.capacity, w.body_bytes, w.faults.c_str(),
              w.adversarial.c_str(), args.ckpt_dir.c_str(), args.trace ? 1 : 0);

  const Clock::time_point epoch = Clock::now();
  Checker check;
  Tracer off(false, epoch);
  Tracer on(true, epoch);
  auto run = [&](bool traced, int web) {
    Tracer* tr = traced ? &on : &off;
    Tracer scratch(true, epoch);  // later traced reps: spans discarded
    if (traced && !on.spans().empty()) tr = &scratch;
    const uint64_t web_seed = WebSeed(args.seed, web);
    Rep rep =
        w.periodic
            ? RunRep<crawler::PeriodicCrawler>(w, web_seed, path, traced, tr,
                                               &check)
            : RunRep<crawler::IncrementalCrawler>(w, web_seed, path, traced,
                                                  tr, &check);
    rep.web = web;
    return rep;
  };

  // Set-up alone is milliseconds: time it many more times than the
  // repetitions do, so its median is steady.
  std::vector<double> setups;
  if (!args.trace) {
    for (int i = 0; i < kSetupTrials; ++i) {
      const simweb::WebConfig wc =
          MakeWebConfig(w, WebSeed(args.seed, i % kWebsPerSeed));
      setups.push_back(
          w.periodic ? TimeSetup<crawler::PeriodicCrawler>(w, wc, &check)
                     : TimeSetup<crawler::IncrementalCrawler>(w, wc, &check));
    }
  }

  // Rounds of one repetition per web, until another round would run
  // past --seconds. Traced runs pair every untraced round with a traced
  // one, so the overhead compares like with like.
  const int min_rounds = args.trace ? 1 : 2;
  std::vector<Rep> untraced, traced;
  for (int round = 1;; ++round) {
    const Clock::time_point round_begin = Clock::now();
    for (int web = 0; web < kWebsPerSeed; ++web) {
      untraced.push_back(run(false, web));
      const Rep& r = untraced.back();
      std::printf("#   web %d: %.0f pages/s (%llu pages in %.3f s), setup "
                  "%.4f s, resume %.4f s\n",
                  web, Pps(r), static_cast<unsigned long long>(r.crawls),
                  r.crawl_s, r.setup_s, Median(r.resume_s));
      if (args.trace) traced.push_back(run(true, web));
    }
    const double round_s = SecondsSince(round_begin);
    const std::vector<Rep> last(untraced.end() - kWebsPerSeed, untraced.end());
    std::printf("# round %d (%.1f s): %.0f pages/s, resume %.4f s\n", round,
                round_s, MedianOf(last, Pps), Pooled(last, &Rep::resume_s));
    if (round >= min_rounds && SecondsSince(epoch) + round_s > args.seconds) {
      break;
    }
  }
  for (const Rep& r : untraced) {
    CheckRepeat(untraced[r.web], r, "untraced", &check);
  }
  for (const Rep& r : traced) CheckRepeat(untraced[r.web], r, "traced", &check);
  // Repetitions overwrite one checkpoint (the first CheckpointIncremental
  // of each crawler rebases); it goes when the run ends.
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".deltas", ec);
  std::filesystem::remove(args.ckpt_dir, ec);  // only if left empty

  std::vector<Metric> metrics;
  if (args.trace) {
    PrintSelfTimes(on, traced.front());
    if (!WriteChromeTrace(on, trace_out, w.name, args.seed)) {
      check.Fail("cannot write trace " + trace_out);
    } else {
      std::printf("# trace: %s (%zu spans)\n", trace_out.c_str(),
                  on.spans().size());
    }
    metrics = PerLayer(traced, untraced);
  } else {
    metrics = EndToEnd(untraced, setups);
  }
  for (const Metric& m : metrics) {
    std::printf("# %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# error_rate %.6f (%llu failed of %llu checked operations)\n",
              check.attempted ? static_cast<double>(check.failed) /
                                    static_cast<double>(check.attempted)
                              : 0.0,
              static_cast<unsigned long long>(check.failed),
              static_cast<unsigned long long>(check.attempted));
  PrintResult(check, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
