// Repository benchmark harness: three workloads against the public API of
// libparsh, end-to-end metrics from an untraced run and per-layer metrics
// from a traced one. benchmark/run.py builds and drives this binary;
// benchmark/README.md defines every workload and metric.
//
//   repo_bench --generate <workload> --out <file.pcsr>
//   repo_bench --workload <name> --graph <file.pcsr> --seed <n>
//              --seconds <s> --trace <0|1> --workdir <dir>
//   repo_bench --selftest --workdir <dir>
//
// A run prints one JSON object on stdout: gate failures, attempted and
// failed counts, the answer digest, provenance, and every metric as
// {"value", "unit"}. Exit 0 means every correctness gate held; wrong
// answers are counted as failed queries, not gated.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "graph/digest.hpp"
#include "server/checkpoint.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/wal.hpp"

#ifndef REPO_BENCH_COMPILER
#define REPO_BENCH_COMPILER "unknown"
#endif
#ifndef REPO_BENCH_BUILD_TYPE
#define REPO_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace parsh;
using namespace parsh::server;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- fixed workload definitions ---------------------------------------------

/// Graphs are a fixed input of each workload (generated once per checkout);
/// the run seed drives only the query pairs and the update stream.
constexpr std::uint64_t kGraphSeed = 1;
/// The stretch envelope tests/test_approx_query.cpp holds answers to.
constexpr double kEnvelope = 1.75;
constexpr double kEpsilon = 0.25;
/// Per-request deadline: generous, so a partial answer means a stall, not
/// ordinary queueing at the offered rate.
constexpr std::uint32_t kDeadlineMs = 1000;
/// Open-loop phase share of the measured window (the rest is closed loop).
constexpr double kOpenShare = 0.75;
/// A run whose generator sent later than this at p99 is invalid.
constexpr double kMaxLatenessP99Ms = 25.0;
constexpr double kMinRealizedShare = 0.95;
constexpr std::size_t kPoolPairs = 1u << 15;

struct WorkloadSpec {
  const char* name;
  int setups;              ///< setup repetitions (setup_s is their median)
  double offered_rps;      ///< open-loop request rate (server workloads)
  std::size_t query_workers;
  int digest_pairs;        ///< warm-up in-process queries (answer digest)
  bool served;             ///< queries go over TCP (p99 needs 1000 samples)
};

constexpr WorkloadSpec kRoadServe{"road-serve", 31, 100.0, 2, 64, true};
constexpr WorkloadSpec kRmatBuild{"rmat-build", 2, 0.0, 0, 8, false};
constexpr WorkloadSpec kRoadUpdate{"road-update", 15, 80.0, 2, 64, true};

const WorkloadSpec* find_spec(const std::string& name) {
  for (const WorkloadSpec* s : {&kRoadServe, &kRmatBuild, &kRoadUpdate}) {
    if (name == s->name) return s;
  }
  return nullptr;
}

/// Road-update knobs: log-uniform weights over kWeightRatio, split into
/// kBands weight-coherent bands (bench_dynamic's update model).
constexpr double kWeightRatio = 10000.0;
constexpr int kBands = 4;
constexpr int kBatchEdges = 8;
/// Closed-loop updater clients: 2, or 1 where nproc = 2 leaves room for
/// just one reader beside it (load threads never exceed nproc).
int updaters_for(unsigned nproc) { return nproc >= 3 ? 2 : 1; }
constexpr std::uint64_t kCheckpointEvery = 32;
/// Updates acked after the explicit pre-crash checkpoint: the crash image
/// always replays exactly this many records.
constexpr int kTailUpdates = 16;
constexpr int kRecoveries = 3;

Graph generate_graph(const std::string& workload) {
  if (workload == "road-serve") return parsh::bench::workload("road", 5041, kGraphSeed);
  if (workload == "rmat-build") {
    return with_uniform_weights(parsh::bench::workload("rmat", 200000, kGraphSeed), 1, 8,
                                kGraphSeed + 1);
  }
  if (workload == "road-update") {
    return with_log_uniform_weights(parsh::bench::workload("road", 2500, kGraphSeed),
                                    kWeightRatio, kGraphSeed + 17);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

ApproxShortestPaths::Params engine_params() {
  ApproxShortestPaths::Params p;
  p.epsilon = kEpsilon;
  p.hopset.hopset.seed = kGraphSeed;
  return p;
}

// ---- small helpers ----------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point at_offset(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : percentile(xs, p);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double share(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string json_str(const std::string& s) {
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

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Run f(i) for i in [0, count) on `threads` plain threads (untimed
/// reference work such as exact distances).
void parallel_indices(std::size_t count, unsigned threads,
                      const std::function<void(std::size_t)>& f) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) f(i);
    });
  }
  for (auto& th : pool) th.join();
}

// ---- tracing ----------------------------------------------------------------

/// One timed interval recorded by this harness around a call into the
/// library. `parent` is the enclosing span (0 = root); `request` ties the
/// spans of one request together (0 = not part of a request).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  double start_us = 0;
  double end_us = 0;
};

/// In-memory span store, written out once the run ends. Disabled, it
/// records nothing and hands out id 0.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const { return on_; }
  std::uint64_t next_id() { return on_ ? next_.fetch_add(1) : 0; }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }
  void record(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::atomic<std::uint64_t> next_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tr, const char* name, std::uint64_t parent = 0,
            std::uint64_t request = 0)
      : tr_(tr) {
    if (!tr_.on()) return;
    span_.id = tr_.next_id();
    span_.parent = parent;
    span_.request = request;
    span_.name = name;
    span_.start_us = tr_.now_us();
  }
  ~SpanScope() {
    if (!tr_.on()) return;
    span_.end_us = tr_.now_us();
    tr_.record(std::move(span_));
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tr_;
  Span span_;
};

/// Nesting check: every parent exists and encloses its child, and a
/// child of a request span carries the same request id. Returns the
/// number of violations; request spans without an id count too.
std::size_t check_spans(const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::size_t bad = 0;
  for (const Span& s : spans) {
    if (s.end_us < s.start_us) ++bad;
    if (s.name == "request" && s.request == 0) ++bad;
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) {
      ++bad;
      continue;
    }
    const Span& p = *it->second;
    if (s.start_us < p.start_us || s.end_us > p.end_us) ++bad;
    if (p.request != 0 && s.request != p.request) ++bad;
  }
  return bad;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": " << json_str(s.name)
        << ", \"start_us\": " << json_num(s.start_us)
        << ", \"end_us\": " << json_num(s.end_us) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

// ---- results ----------------------------------------------------------------

struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> gate_failures;
  std::vector<std::pair<std::string, std::string>> provenance;  // key -> JSON value
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t answer_digest = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  void prov(const std::string& key, const std::string& json_value) {
    provenance.emplace_back(key, json_value);
  }
};

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void add_machine_provenance(Result& r) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string mask = "unknown";
  int count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    count = CPU_COUNT(&set);
    // Hex mask, most significant CPU first (taskset's notation).
    unsigned long long bits = 0;
    for (int c = 0; c < 64 && c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) bits |= 1ULL << c;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx", bits);
    mask = buf;
  }
  const char* omp = std::getenv("OMP_NUM_THREADS");
  r.prov("nproc", std::to_string(count));
  r.prov("online_cpus", std::to_string(std::thread::hardware_concurrency()));
  r.prov("affinity_mask", json_str(mask));
  r.prov("cpu_model", json_str(cpu_model()));
  r.prov("l3_size", json_str(read_first_line("/sys/devices/system/cpu/cpu0/cache/index3/size")));
  r.prov("compiler", json_str(REPO_BENCH_COMPILER));
  r.prov("build_type", json_str(REPO_BENCH_BUILD_TYPE));
  r.prov("omp_num_threads", json_str(omp ? omp : "unset"));
  r.prov("parallel_workers", std::to_string(num_workers()));
}

std::string server_config_json(const ServerConfig& c) {
  std::ostringstream o;
  o << "{\"query_workers\": " << c.query_workers
    << ", \"pool_workspaces\": " << c.pool_workspaces
    << ", \"max_queue_depth\": " << c.admission.max_queue_depth
    << ", \"default_deadline_ms\": " << json_num(c.admission.default_deadline_ms)
    << ", \"batch_budget_ms\": " << json_num(c.admission.batch_budget_ms)
    << ", \"max_batch\": " << c.admission.max_batch
    << ", \"degrade_at_fraction\": " << json_num(c.admission.degrade_at_fraction)
    << ", \"request_deadline_ms\": " << kDeadlineMs << ", \"faults\": false}";
  return o.str();
}

/// CPUs this process may run on (what nproc prints).
unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Milliseconds for a fixed single-threaded integer loop (median of 9).
/// Recorded at the start and end of every run: when the host slows down
/// or speeds up between runs, this moves with every timing metric.
double host_calibration_ms() {
  std::vector<double> ms;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t = Clock::now();
    std::uint64_t x = static_cast<std::uint64_t>(rep);
    for (int i = 0; i < 2'000'000; ++i) x = splitmix64(x);
    sink ^= x;
    ms.push_back(ms_between(t, Clock::now()));
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return pct(ms, 50);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- query pairs and answer checks -------------------------------------------

using Pair = std::pair<vid, vid>;

/// Uniform random s != t pairs, a pure function of (n, seed).
std::vector<Pair> make_pairs(vid n, std::uint64_t seed, std::size_t count) {
  const Rng rng = Rng(seed).split(0x9a125);
  std::vector<Pair> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::uint64_t j = 0;; ++j) {
      const vid s = static_cast<vid>(rng.uniform_int(2 * (i + count * j), n));
      const vid t = static_cast<vid>(rng.uniform_int(2 * (i + count * j) + 1, n));
      if (s != t) {
        out[i] = {s, t};
        break;
      }
    }
  }
  return out;
}

/// One query as the harness saw it.
struct QueryRecord {
  std::uint32_t pool = 0;  ///< index into the pair pool
  std::uint64_t request = 0;
  bool open_loop = false;
  double due_ms = 0, send_ms = 0, done_ms = 0;  ///< from the phase origin
  bool transport_ok = false;
  bool answer_ok = false;  ///< served, in range, not a partial
  double estimate = kInfWeight;
  std::uint64_t epoch = 0;
  double exact = kInfWeight;
  bool checked = false;
};

enum class Verdict { kOk, kTransport, kPartial, kBelowExact, kAboveEnvelope, kUnchecked };

Verdict judge(const QueryRecord& q) {
  if (!q.transport_ok) return Verdict::kTransport;
  if (!q.answer_ok) return Verdict::kPartial;
  if (!q.checked) return Verdict::kUnchecked;
  if (std::isinf(q.exact)) return std::isinf(q.estimate) ? Verdict::kOk : Verdict::kBelowExact;
  if (q.estimate + 1e-6 < q.exact) return Verdict::kBelowExact;
  if (q.estimate > q.exact * kEnvelope + 1e-6) return Verdict::kAboveEnvelope;
  return Verdict::kOk;
}

struct QueryTally {
  std::uint64_t attempted = 0, ok = 0, transport = 0, partial = 0, below = 0,
                above = 0, unchecked = 0;
  void add(const QueryRecord& q) {
    ++attempted;
    switch (judge(q)) {
      case Verdict::kOk: ++ok; break;
      case Verdict::kTransport: ++transport; break;
      case Verdict::kPartial: ++partial; break;
      case Verdict::kBelowExact: ++below; break;
      case Verdict::kAboveEnvelope: ++above; break;
      case Verdict::kUnchecked: ++unchecked; break;
    }
  }
  /// A read that could not be checked counts as failed, never as ok.
  [[nodiscard]] std::uint64_t failed() const {
    return transport + partial + below + above + unchecked;
  }
};

std::uint64_t digest_answers(const std::vector<double>& estimates) {
  std::uint64_t h = kFnv64Offset;
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    h = fnv1a_u64(h, i);
    h = fnv1a_f64(h, estimates[i]);
  }
  return h;
}

/// Warm-up in process: the first `count` pool pairs through the engine's
/// workspace form (grows the workspace; excluded from every metric). The
/// answers form the run's answer digest.
std::uint64_t warm_and_digest(const ApproxShortestPaths& engine, SsspWorkspace& ws,
                              const std::vector<Pair>& pool, int count) {
  std::vector<double> est;
  for (int i = 0; i < count; ++i) {
    est.push_back(engine.query(pool[static_cast<std::size_t>(i)].first,
                               pool[static_cast<std::size_t>(i)].second, ws)
                      .estimate);
  }
  return digest_answers(est);
}

/// The end-to-end query metrics shared by every workload.
void report_queries(Result& r, const WorkloadSpec& spec,
                    const std::vector<QueryRecord>& measured,
                    const std::vector<double>& latency_ms, double capacity_rps) {
  QueryTally tally;
  for (const QueryRecord& q : measured) tally.add(q);
  r.attempted += tally.attempted;
  r.failed += tally.failed();
  r.metric("query_p50_ms", pct(latency_ms, 50), "ms");
  r.metric("query_p90_ms", pct(latency_ms, 90), "ms");
  // p99 only where the sample supports it (>= 10 samples beyond).
  r.metric("query_p99_ms", spec.served ? pct(latency_ms, 99) : 0.0, "ms");
  r.metric("query_capacity_rps", capacity_rps, "req/s");
  r.metric("query_ok_rate", share(static_cast<double>(tally.ok), static_cast<double>(tally.attempted)),
           "fraction");
  r.metric("query_failed_rate",
           share(static_cast<double>(tally.failed()), static_cast<double>(tally.attempted)),
           "fraction");
  double worst = 0;
  for (const QueryRecord& q : measured) {
    if (q.checked && q.answer_ok && q.exact > 0 && std::isfinite(q.exact)) {
      worst = std::max(worst, q.estimate / q.exact);
    }
  }
  r.metric("query.worst_ratio", worst, "x");
  r.metric("query.samples", static_cast<double>(latency_ms.size()), "count");
  r.metric("query.failed_transport", static_cast<double>(tally.transport), "count");
  r.metric("query.failed_partial", static_cast<double>(tally.partial), "count");
  r.metric("query.failed_below_exact", static_cast<double>(tally.below), "count");
  r.metric("query.failed_above_envelope", static_cast<double>(tally.above), "count");
  r.metric("query.unchecked", static_cast<double>(tally.unchecked), "count");
  const std::size_t need = spec.served ? 1000 : 100;
  r.gate(latency_ms.size() >= need, std::string(spec.served ? "query_p99_ms" : "query_p90_ms") +
                                        " needs >= " + std::to_string(need) + " samples, got " +
                                        std::to_string(latency_ms.size()));
}

/// Answered requests per second, as the median over the whole one-second
/// windows of [start_ms, end_ms): robust to a burst of outside load in any
/// single window. (Server workloads answer hundreds of requests a second.)
double windowed_rate(const std::vector<QueryRecord>& qs, double start_ms, double end_ms) {
  const auto windows = static_cast<std::size_t>(std::floor((end_ms - start_ms) / 1e3));
  std::vector<double> counts(std::max<std::size_t>(windows, 1), 0.0);
  for (const QueryRecord& q : qs) {
    if (!q.transport_ok || !q.answer_ok || q.done_ms < start_ms) continue;
    const auto w = static_cast<std::size_t>((q.done_ms - start_ms) / 1e3);
    if (w < counts.size()) counts[w] += 1;
  }
  return pct(counts, 50);
}

// ---- setup ------------------------------------------------------------------

struct BuildCounts {
  std::uint64_t rounds = 0, edges = 0, scales = 0, wd_work = 0, wd_rounds = 0;
};

void report_setup(Result& r, const std::vector<double>& setup_s,
                  const BuildCounts& bc, const std::vector<double>& load_ms,
                  const std::vector<double>& build_s) {
  r.metric("setup_s", pct(setup_s, 50), "s");
  r.metric("setup.repetitions", static_cast<double>(setup_s.size()), "count");
  r.metric("graph.load_ms", pct(load_ms, 50), "ms");
  r.metric("hopset.build_s", pct(build_s, 50), "s");
  r.metric("hopset.rounds", static_cast<double>(bc.rounds), "count");
  r.metric("hopset.edges", static_cast<double>(bc.edges), "count");
  r.metric("hopset.scales", static_cast<double>(bc.scales), "count");
  r.metric("wd.work", static_cast<double>(bc.wd_work), "count");
  r.metric("wd.rounds", static_cast<double>(bc.wd_rounds), "count");
}

/// `load_pcsr_file` inside a graph.load span, its wall time appended.
Graph timed_load(Tracer& tr, std::uint64_t parent, const std::string& path,
                 std::vector<double>& load_ms) {
  SpanScope s(tr, "graph.load", parent);
  const auto t = Clock::now();
  Graph g = load_pcsr_file(path);
  load_ms.push_back(ms_between(t, Clock::now()));
  return g;
}

BuildCounts counts_of(const ApproxShortestPaths& e, const wd::Counters& c) {
  return {e.preprocessing_rounds(), e.hopset().total_hopset_edges, e.num_scales(), c.work,
          c.rounds};
}

void prov_graph(Result& r, const Graph& g) {
  r.prov("graph_digest", json_str(std::to_string(graph_digest(g))));
  r.prov("graph", "{\"n\": " + std::to_string(g.num_vertices()) +
                      ", \"m\": " + std::to_string(g.num_edges()) + "}");
}

// ---- the served-query load generator ----------------------------------------

struct LoadConfig {
  double open_s = 0;        ///< open-loop phase length
  double closed_s = 0;      ///< closed-loop phase length
  double offered_rps = 0;   ///< open-loop rate across all clients
  int clients = 1;         ///< connections in both phases
  int warmup_per_client = 8;
  std::uint64_t seed = 1;
  std::uint32_t first_pool = 0;  ///< pool indices below this are reserved
  /// Runs when the open-loop phase ends (road-update stops and joins its
  /// writers here).
  std::function<void()> at_open_end;
};

struct LoadOutcome {
  std::vector<QueryRecord> open;
  std::vector<QueryRecord> closed;
  double closed_start_ms = 0, closed_end_ms = 0;  ///< the closed phase, from the origin
  double realized_rps = 0;
  std::vector<double> lateness_ms;
  ClientStats clients;
  bool connect_failed = false;
};

void add_client_stats(ClientStats& into, const ClientStats& s) {
  into.requests_sent += s.requests_sent;
  into.retries += s.retries;
  into.sheds_seen += s.sheds_seen;
  into.deadline_seen += s.deadline_seen;
  into.degraded_seen += s.degraded_seen;
  into.reconnects += s.reconnects;
  into.failures += s.failures;
}

QueryRecord send_query(QueryClient& client, Tracer& tr, std::uint64_t request,
                       std::uint32_t pool_idx, const Pair& pair, Clock::time_point origin) {
  QueryRecord q;
  q.pool = pool_idx;
  q.request = request;
  SpanScope span(tr, "request", 0, request);
  QueryResponse resp;
  q.send_ms = ms_between(origin, Clock::now());
  Status s;
  {
    SpanScope call(tr, "client.query", span.id(), request);
    s = client.query({pair}, kDeadlineMs, &resp);
  }
  q.done_ms = ms_between(origin, Clock::now());
  q.transport_ok = s.ok();
  if (s.ok() && resp.answers.size() == 1) {
    q.answer_ok = resp.status == StatusCode::kOk && resp.answers[0].status == StatusCode::kOk;
    q.estimate = resp.answers[0].estimate;
    q.epoch = resp.epoch;
  }
  return q;
}

/// Open loop at a fixed rate (request i is due at i / rate; latency is
/// timed from the due time), then a closed loop where every client sends
/// its next request as soon as the previous one is answered.
LoadOutcome run_query_load(std::uint16_t port, const std::vector<Pair>& pool,
                           const LoadConfig& lc, Tracer& tr,
                           std::atomic<std::uint64_t>& request_ids) {
  LoadOutcome out;
  const auto open_count = static_cast<std::size_t>(std::floor(lc.open_s * lc.offered_rps));
  std::atomic<std::uint32_t> next_closed{lc.first_pool + static_cast<std::uint32_t>(open_count)};
  std::mutex mu;
  std::atomic<int> ready{0};
  std::atomic<bool> connect_failed{false};
  Clock::time_point t0{};
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;
  for (int c = 0; c < lc.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientConfig cc;
      cc.rpc_timeout_ms = 5000;
      cc.seed = lc.seed * 1009 + static_cast<std::uint64_t>(c);
      QueryClient client;
      if (!QueryClient::connect_tcp(port, cc, &client).ok()) {
        connect_failed = true;
        ready.fetch_add(1);
        return;
      }
      // Warm-up requests grow the server's workspaces; not recorded.
      for (int w = 0; w < lc.warmup_per_client; ++w) {
        QueryResponse resp;
        (void)client.query({pool[static_cast<std::size_t>(w % 64)]}, kDeadlineMs, &resp);
      }
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));

      std::vector<QueryRecord> open, closed;
      std::vector<double> lateness;
      const double interval = 1.0 / lc.offered_rps;
      for (std::size_t i = static_cast<std::size_t>(c); i < open_count;
           i += static_cast<std::size_t>(lc.clients)) {
        const auto due = at_offset(t0, interval * static_cast<double>(i));
        std::this_thread::sleep_until(due);
        const auto idx = lc.first_pool + static_cast<std::uint32_t>(i);
        QueryRecord q = send_query(client, tr, request_ids.fetch_add(1), idx,
                                   pool[idx % pool.size()], t0);
        q.open_loop = true;
        q.due_ms = interval * static_cast<double>(i) * 1e3;
        lateness.push_back(q.send_ms - q.due_ms);
        open.push_back(q);
      }
      const auto closed_start = at_offset(t0, lc.open_s);
      const auto closed_end = at_offset(t0, lc.open_s + lc.closed_s);
      std::this_thread::sleep_until(closed_start);
      while (Clock::now() < closed_end) {
        const std::uint32_t idx = next_closed.fetch_add(1);
        QueryRecord q = send_query(client, tr, request_ids.fetch_add(1), idx,
                                   pool[idx % pool.size()], t0);
        q.due_ms = q.send_ms;
        closed.push_back(q);
      }
      const ClientStats cs = client.client_stats();
      client.close();
      std::lock_guard<std::mutex> lock(mu);
      out.open.insert(out.open.end(), open.begin(), open.end());
      out.closed.insert(out.closed.end(), closed.begin(), closed.end());
      out.lateness_ms.insert(out.lateness_ms.end(), lateness.begin(), lateness.end());
      add_client_stats(out.clients, cs);
    });
  }
  while (ready.load() < lc.clients) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  t0 = at_offset(Clock::now(), 0.02);
  go = true;
  if (lc.at_open_end) {
    std::this_thread::sleep_until(at_offset(t0, lc.open_s));
    lc.at_open_end();
  }
  for (auto& th : threads) th.join();
  out.connect_failed = connect_failed.load();
  out.closed_start_ms = lc.open_s * 1e3;
  out.closed_end_ms = (lc.open_s + lc.closed_s) * 1e3;

  double last_send = 0;
  for (const QueryRecord& q : out.open) last_send = std::max(last_send, q.send_ms);
  out.realized_rps = share(static_cast<double>(out.open.size()),
                           last_send / 1e3 + 1.0 / lc.offered_rps);
  return out;
}

LoadConfig load_config(double seconds, double offered_rps, int clients, std::uint64_t seed,
                       int reserved_pairs) {
  LoadConfig lc;
  lc.open_s = seconds * kOpenShare;
  lc.closed_s = seconds - lc.open_s;
  lc.offered_rps = offered_rps;
  lc.clients = clients;
  lc.seed = seed;
  lc.first_pool = static_cast<std::uint32_t>(reserved_pairs);
  return lc;
}

void report_load(Result& r, const LoadOutcome& lo, const LoadConfig& lc) {
  const double late_p99 = pct(lo.lateness_ms, 99);
  r.metric("load.offered_rps", lc.offered_rps, "req/s");
  r.metric("load.realized_rps", lo.realized_rps, "req/s");
  r.metric("load.lateness_ms_p99", late_p99, "ms");
  r.metric("load.clients", lc.clients, "count");
  const bool valid = late_p99 <= kMaxLatenessP99Ms &&
                     lo.realized_rps >= kMinRealizedShare * lc.offered_rps;
  r.metric("load.valid", valid ? 1 : 0, "bool");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "open-loop generator fell behind (lateness p99 %.2f ms, realized %.1f of %.1f req/s)",
                late_p99, lo.realized_rps, lc.offered_rps);
  r.gate(valid, buf);
  r.gate(!lo.connect_failed, "a load client could not connect");
}

/// The query metrics of a served workload: latency from the due time over
/// the open-loop requests, capacity from the closed-loop phase, every
/// answer in both phases checked.
void report_served(Result& r, const WorkloadSpec& spec, const LoadOutcome& lo,
                   const LoadConfig& lc) {
  std::vector<QueryRecord> measured = lo.open;
  measured.insert(measured.end(), lo.closed.begin(), lo.closed.end());
  std::vector<double> latency;
  for (const QueryRecord& q : lo.open) latency.push_back(q.done_ms - q.due_ms);
  report_queries(r, spec, measured, latency,
                 windowed_rate(lo.closed, lo.closed_start_ms, lo.closed_end_ms));
  report_load(r, lo, lc);
}

/// Exact distances for every measured query, outside every timed window.
void check_static(std::vector<QueryRecord>& qs, const Graph& g, const std::vector<Pair>& pool,
                  unsigned threads) {
  std::map<std::uint32_t, double> exact;
  for (const QueryRecord& q : qs) exact[q.pool] = kInfWeight;
  std::vector<std::uint32_t> keys;
  for (const auto& [k, v] : exact) keys.push_back(k);
  std::vector<double> values(keys.size());
  parallel_indices(keys.size(), threads, [&](std::size_t i) {
    const Pair& p = pool[keys[i] % pool.size()];
    values[i] = st_distance(g, p.first, p.second);
  });
  for (std::size_t i = 0; i < keys.size(); ++i) exact[keys[i]] = values[i];
  for (QueryRecord& q : qs) {
    q.exact = exact[q.pool];
    q.checked = true;
  }
}

void report_server(Result& r, const StatsSnapshot& st, const ClientStats& cs,
                   std::uint64_t query_attempts) {
  r.metric("server.requests_per_batch",
           share(static_cast<double>(st.requests_admitted), static_cast<double>(st.batches_served)),
           "req/batch");
  r.metric("server.shed", static_cast<double>(st.requests_shed), "count");
  r.metric("server.degraded", static_cast<double>(st.queries_degraded), "count");
  r.metric("server.deadline_exceeded", static_cast<double>(st.queries_deadline_exceeded), "count");
  r.metric("server.pool_checkout_timeouts", static_cast<double>(st.pool_checkout_timeouts), "count");
  r.metric("client.retries", static_cast<double>(cs.retries), "count");
  r.metric("client.reconnects", static_cast<double>(cs.reconnects), "count");
  r.gate(query_attempts == st.requests_admitted + st.requests_shed,
         "client query attempts (" + std::to_string(query_attempts) +
             ") != server admitted + shed (" +
             std::to_string(st.requests_admitted + st.requests_shed) + ")");
}

/// Stop the server and hold it to the shutdown contract.
void stop_server(Result& r, QueryServer& srv) {
  const auto t = Clock::now();
  srv.stop();
  const double stop_ms = ms_between(t, Clock::now());
  r.gate(srv.open_connections() == 0 &&
             srv.metrics().connections_opened.load() == srv.metrics().connections_closed.load(),
         "leaked connection after stop()");
  r.gate(stop_ms < 5000, "unclean shutdown: stop() took " + std::to_string(stop_ms) + " ms");
}

// ---- sssp layer: in-process replay and exact baselines -----------------------

struct ReplayStats {
  std::vector<double> query_ms;
  std::vector<double> rounds, relaxations;
  std::vector<std::uint64_t> scale_used = std::vector<std::uint64_t>(8, 0);
};

void replay_note(ReplayStats& rs, const ApproxShortestPaths::QueryResult& qr, double ms) {
  rs.query_ms.push_back(ms);
  rs.rounds.push_back(static_cast<double>(qr.rounds));
  rs.relaxations.push_back(static_cast<double>(qr.relaxations));
  ++rs.scale_used[std::min<std::size_t>(qr.scale_used, rs.scale_used.size() - 1)];
}

/// Served pairs replayed in process through query(s, t, ws), with the
/// exact early-exit Dijkstra and delta-stepping baselines on the same pairs.
void report_sssp(Result& r, Tracer& tr, const ReplayStats& rs, const Graph& g,
                 const std::vector<Pair>& pairs, std::size_t exact_pairs,
                 std::size_t delta_pairs) {
  std::vector<double> exact_ms, delta_ms;
  {
    SpanScope base(tr, "sssp.baselines");
    for (std::size_t i = 0; i < std::min(exact_pairs, pairs.size()); ++i) {
      SpanScope s(tr, "sssp.exact", base.id());
      const auto t = Clock::now();
      volatile double d = st_distance(g, pairs[i].first, pairs[i].second);
      (void)d;
      exact_ms.push_back(ms_between(t, Clock::now()));
    }
    SsspWorkspace ws;
    for (std::size_t i = 0; i < std::min(delta_pairs, pairs.size()); ++i) {
      SpanScope s(tr, "sssp.delta_stepping", base.id());
      const auto t = Clock::now();
      const DeltaSteppingResult res = delta_stepping(g, pairs[i].first, 0, ws);
      volatile double d = res.dist[pairs[i].second];
      (void)d;
      delta_ms.push_back(ms_between(t, Clock::now()));
    }
  }
  const double q50 = pct(rs.query_ms, 50);
  r.metric("sssp.query_ms_p50", q50, "ms");
  r.metric("sssp.query_ms_p99", pct(rs.query_ms, 99), "ms");
  r.metric("sssp.query_rounds_mean", mean(rs.rounds), "rounds");
  r.metric("sssp.query_relaxations_mean", mean(rs.relaxations), "edges");
  for (std::size_t i = 0; i < rs.scale_used.size(); ++i) {
    r.metric("sssp.scale_used." + std::to_string(i), static_cast<double>(rs.scale_used[i]),
             "count");
  }
  const double e50 = pct(exact_ms, 50);
  r.metric("sssp.exact_ms_p50", e50, "ms");
  r.metric("sssp.delta_stepping_ms_p50", pct(delta_ms, 50), "ms");
  r.metric("sssp.speedup_vs_exact", share(e50, q50), "x");
  r.metric("sssp.replayed", static_cast<double>(rs.query_ms.size()), "count");
}

ReplayStats replay(Tracer& tr, const ApproxShortestPaths& engine, const std::vector<Pair>& pairs,
                   const std::vector<std::uint64_t>& requests) {
  ReplayStats rs;
  SsspWorkspace ws;
  SpanScope all(tr, "sssp.replay");
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    SpanScope s(tr, "sssp.query", all.id(), requests[i]);
    const auto t = Clock::now();
    const auto qr = engine.query(pairs[i].first, pairs[i].second, ws);
    replay_note(rs, qr, ms_between(t, Clock::now()));
  }
  return rs;
}

// Per-layer metrics a workload does not exercise are reported as 0 so that
// every run prints the same metric set.
void zero_metrics(Result& r, std::initializer_list<const char*> names, const char* unit) {
  for (const char* n : names) r.metric(n, 0, unit);
}

void zero_server(Result& r) {
  zero_metrics(r, {"server.requests_per_batch"}, "req/batch");
  zero_metrics(r, {"server.shed", "server.degraded", "server.deadline_exceeded",
                   "server.pool_checkout_timeouts", "client.retries", "client.reconnects"},
               "count");
  zero_metrics(r, {"server.overhead_ms_p50", "load.lateness_ms_p99"}, "ms");
  zero_metrics(r, {"load.offered_rps", "load.realized_rps"}, "req/s");
}

void zero_updates(Result& r) {
  zero_metrics(r, {"update_p50_ms", "update_p90_ms", "dynamic.rebuild_ms_p50",
                   "dynamic.rebuild_ms_p90", "durability.ack_overhead_ms_p50",
                   "recovery.checkpoint_load_ms", "recovery.engine_build_ms",
                   "recovery.replay_ms"},
               "ms");
  zero_metrics(r, {"update_ok_rps"}, "updates/s");
  zero_metrics(r, {"update_failed_rate", "dynamic.dirty_scale_share",
                   "dynamic.dirty_cluster_share", "dynamic.stale_batch_share"},
               "fraction");
  zero_metrics(r, {"recovery_s"}, "s");
  zero_metrics(r, {"wal.bytes_per_update"}, "bytes");
  zero_metrics(r, {"wal.records", "wal.fsyncs", "durability.checkpoints", "durability.deduped",
                   "recovery.replayed"},
               "count");
}

// ---- workload: road-serve ----------------------------------------------------

struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  std::string graph_path;
  std::string workdir;
  std::uint64_t seed = 1;
  double seconds = 10;
  unsigned nproc = 1;
};

ServerConfig serving_config(std::size_t workers) {
  ServerConfig cfg;
  cfg.query_workers = workers;
  cfg.admission.workers = workers;
  cfg.admission.default_deadline_ms = kDeadlineMs;
  return cfg;
}

void run_road_serve(const RunArgs& a, Tracer& tr, Result& r) {
  const ServerConfig cfg = serving_config(a.spec->query_workers);
  r.prov("server_config", server_config_json(cfg));

  std::vector<double> setup_s, load_ms, build_s;
  BuildCounts bc;
  Graph g;
  std::unique_ptr<ApproxShortestPaths> engine;
  std::unique_ptr<QueryServer> srv;
  for (int rep = 0; rep < a.spec->setups; ++rep) {
    if (srv) stop_server(r, *srv);
    srv.reset();
    engine.reset();
    g = Graph();
    const auto t = Clock::now();
    SpanScope setup(tr, "setup");
    g = timed_load(tr, setup.id(), a.graph_path, load_ms);
    {
      SpanScope s(tr, "hopset.build", setup.id());
      wd::Region region;
      const auto tb = Clock::now();
      engine = std::make_unique<ApproxShortestPaths>(g, engine_params());
      build_s.push_back(ms_between(tb, Clock::now()) / 1e3);
      bc = counts_of(*engine, region.delta());
    }
    {
      SpanScope s(tr, "server.listen", setup.id());
      srv = std::make_unique<QueryServer>(g, *engine, cfg);
      const Status ls = srv->listen_tcp(0);
      r.gate(ls.ok(), "listen: " + ls.to_string());
      if (!ls.ok()) return;
    }
    setup_s.push_back(ms_between(t, Clock::now()) / 1e3);
  }
  report_setup(r, setup_s, bc, load_ms, build_s);
  prov_graph(r, g);

  const std::vector<Pair> pool = make_pairs(g.num_vertices(), a.seed, kPoolPairs);
  SsspWorkspace ws;
  r.answer_digest = warm_and_digest(*engine, ws, pool, a.spec->digest_pairs);

  const LoadConfig lc = load_config(a.seconds, a.spec->offered_rps, static_cast<int>(a.nproc),
                                    a.seed, a.spec->digest_pairs);
  std::atomic<std::uint64_t> request_ids{1};
  LoadOutcome lo = run_query_load(srv->port(), pool, lc, tr, request_ids);
  const StatsSnapshot st = srv->stats();
  stop_server(r, *srv);

  check_static(lo.open, g, pool, a.nproc);
  check_static(lo.closed, g, pool, a.nproc);
  report_served(r, *a.spec, lo, lc);
  report_server(r, st, lo.clients, lo.clients.requests_sent);
  zero_updates(r);

  if (!tr.on()) return;
  // Replay the first open-loop requests in process; their client latency
  // minus engine time is the serving stack's overhead.
  std::vector<QueryRecord> first = lo.open;
  std::sort(first.begin(), first.end(),
            [](const QueryRecord& x, const QueryRecord& y) { return x.pool < y.pool; });
  first.resize(std::min<std::size_t>(first.size(), 512));
  std::vector<Pair> pairs;
  std::vector<std::uint64_t> reqs;
  for (const QueryRecord& q : first) {
    pairs.push_back(pool[q.pool % pool.size()]);
    reqs.push_back(q.request);
  }
  const ReplayStats rs = replay(tr, *engine, pairs, reqs);
  std::vector<double> overhead;
  for (std::size_t i = 0; i < first.size(); ++i) {
    overhead.push_back(first[i].done_ms - first[i].send_ms - rs.query_ms[i]);
  }
  r.metric("server.overhead_ms_p50", pct(overhead, 50), "ms");
  report_sssp(r, tr, rs, g, pairs, 512, 64);
}

// ---- workload: rmat-build ----------------------------------------------------

void run_rmat_build(const RunArgs& a, Tracer& tr, Result& r) {
  std::vector<double> setup_s, load_ms, build_s;
  BuildCounts bc;
  Graph g;
  std::unique_ptr<ApproxShortestPaths> engine;
  for (int rep = 0; rep < a.spec->setups; ++rep) {
    engine.reset();
    g = Graph();
    const auto t = Clock::now();
    SpanScope setup(tr, "setup");
    g = timed_load(tr, setup.id(), a.graph_path, load_ms);
    {
      SpanScope s(tr, "hopset.build", setup.id());
      wd::Region region;
      const auto tb = Clock::now();
      engine = std::make_unique<ApproxShortestPaths>(g, engine_params());
      build_s.push_back(ms_between(tb, Clock::now()) / 1e3);
      bc = counts_of(*engine, region.delta());
    }
    setup_s.push_back(ms_between(t, Clock::now()) / 1e3);
  }
  report_setup(r, setup_s, bc, load_ms, build_s);
  prov_graph(r, g);
  r.prov("server_config", "null");

  const std::vector<Pair> pool = make_pairs(g.num_vertices(), a.seed, kPoolPairs);
  SsspWorkspace ws;
  r.answer_digest = warm_and_digest(*engine, ws, pool, a.spec->digest_pairs);

  // One caller at a time, in process, for half the window (the builds
  // take much of the run) and at least kMinRmatQueries queries, so the p90
  // always has more than ten samples beyond it.
  constexpr std::size_t kMinRmatQueries = 160;
  std::vector<QueryRecord> measured;
  std::vector<double> latency;
  ReplayStats rs;
  const auto t0 = Clock::now();
  const auto end = at_offset(t0, a.seconds / 2);
  for (auto idx = static_cast<std::uint32_t>(a.spec->digest_pairs);
       Clock::now() < end || measured.size() < kMinRmatQueries; ++idx) {
    const std::uint64_t rid = idx;
    SpanScope req(tr, "request", 0, rid);
    QueryRecord q;
    q.pool = idx;
    q.request = rid;
    const auto ts = Clock::now();
    ApproxShortestPaths::QueryResult qr;
    {
      SpanScope s(tr, "sssp.query", req.id(), rid);
      const Pair& p = pool[idx % pool.size()];
      qr = engine->query(p.first, p.second, ws);
    }
    const double ms = ms_between(ts, Clock::now());
    q.send_ms = ms_between(t0, ts);
    q.done_ms = q.send_ms + ms;
    q.transport_ok = true;
    q.answer_ok = !qr.deadline_exceeded;
    q.estimate = qr.estimate;
    latency.push_back(ms);
    replay_note(rs, qr, ms);
    measured.push_back(q);
  }
  const double wall_s = ms_between(t0, Clock::now()) / 1e3;
  check_static(measured, g, pool, a.nproc);
  report_queries(r, *a.spec, measured, latency, share(static_cast<double>(measured.size()), wall_s));
  zero_server(r);
  zero_updates(r);

  if (!tr.on()) return;
  std::vector<Pair> pairs;
  for (const QueryRecord& q : measured) pairs.push_back(pool[q.pool % pool.size()]);
  report_sssp(r, tr, rs, g, pairs, 32, 16);
}

// ---- workload: road-update ---------------------------------------------------

struct UpdateRecord {
  double done_ms = 0;  ///< from the start of the update stream
  double latency_ms = 0;
  bool acked = false;
  bool tail = false;
  UpdateResponse resp;
};

/// bench_dynamic's weight-coherent batches over the base graph's edge set:
/// every batch draws one log-uniform band of the weight range and touches
/// only base edges whose weight lies in it; 70% of its edges are reweighted
/// (or re-inserted) to a new weight in the band, 30% are removed. Changes
/// stay in one band, so lighter distance scales can stay clean, and the
/// topology never leaves the base grid, so the workload is stationary.
class UpdateStream {
 public:
  explicit UpdateStream(const Graph& base) {
    for (const Edge& e : base.undirected_edges()) {
      by_band_[static_cast<std::size_t>(band_of(e.w))].push_back(e);
    }
    for (const std::vector<Edge>& band : by_band_) {
      if (band.empty()) throw std::invalid_argument("road-update: empty weight band");
    }
  }

  [[nodiscard]] GraphDelta batch(std::uint64_t seed, std::uint64_t client,
                                 std::uint64_t index) const {
    const Rng r = Rng(seed).split(0xda7a00 + client).split(index);
    const int band = static_cast<int>(r.uniform_int(997, kBands));
    const double lo = std::pow(kWeightRatio, static_cast<double>(band) / kBands);
    const double hi = std::pow(kWeightRatio, static_cast<double>(band + 1) / kBands);
    const std::vector<Edge>& in_band = by_band_[static_cast<std::size_t>(band)];
    GraphDelta d;
    for (std::uint64_t k = 0; k < kBatchEdges; ++k) {
      if (r.uniform_int(3 * k, 100) < 70) {
        Edge e = in_band[r.uniform_int(3 * k + 1, in_band.size())];
        const double x = r.uniform(3 * k + 2);
        e.w = std::max<weight_t>(1, std::floor(lo * std::pow(hi / lo, x)));
        d.insert.push_back(e);
      } else {
        d.remove.push_back(in_band[r.uniform_int(3 * k + 1, in_band.size())]);
      }
    }
    return d;
  }

 private:
  static int band_of(weight_t w) {
    const int b = static_cast<int>(std::floor(std::log(std::max(1.0, w)) /
                                              std::log(kWeightRatio) * kBands));
    return std::clamp(b, 0, kBands - 1);
  }
  std::vector<Edge> by_band_[kBands];
};

std::uint64_t dir_wal_bytes(const std::string& dir, std::uint64_t* records) {
  std::uint64_t bytes = 0;
  *records = 0;
  for (const std::string& seg : list_wal_segments(dir)) {
    WalScan scan;
    if (scan_wal_segment(seg, &scan).ok()) {
      bytes += scan.file_bytes;
      *records += scan.records.size();
    }
  }
  return bytes;
}

void run_road_update(const RunArgs& a, Tracer& tr, Result& r) {
  const ServerConfig cfg = serving_config(a.spec->query_workers);
  r.prov("server_config", server_config_json(cfg));
  if (a.nproc < 2) {
    r.gate(false, "road-update needs nproc >= 2 (an updater and a reader)");
    return;
  }
  const int updaters = updaters_for(a.nproc);
  r.prov("durability", "{\"fsync\": \"every_batch\", \"checkpoint_every\": " +
                           std::to_string(kCheckpointEvery) + ", \"updaters\": " +
                           std::to_string(updaters) + ", \"tail_updates\": " +
                           std::to_string(kTailUpdates) + "}");
  DurabilityOptions opt;
  opt.wal.fsync = FsyncPolicy::kEveryBatch;
  opt.checkpoint_every = kCheckpointEvery;
  const ApproxShortestPaths::Params params = engine_params();

  std::vector<double> setup_s, load_ms, build_s;
  BuildCounts bc;
  Graph g;
  std::unique_ptr<Durability> dur;
  std::unique_ptr<QueryServer> srv;
  std::error_code ec;
  for (int rep = 0; rep < a.spec->setups; ++rep) {
    opt.dir = a.workdir + "/durable-" + std::to_string(rep);
    fs::remove_all(opt.dir, ec);
    const auto t = Clock::now();
    SpanScope setup(tr, "setup");
    g = timed_load(tr, setup.id(), a.graph_path, load_ms);
    {
      SpanScope s(tr, "hopset.build", setup.id());
      wd::Region region;
      const auto tb = Clock::now();
      const Status os = Durability::open(g, params, opt, &dur);
      build_s.push_back(ms_between(tb, Clock::now()) / 1e3);
      r.gate(os.ok(), "durable open: " + os.to_string());
      if (!os.ok()) return;
      bc = counts_of(dur->engine().snapshot()->engine, region.delta());
    }
    {
      SpanScope s(tr, "server.listen", setup.id());
      srv = std::make_unique<QueryServer>(*dur, cfg);
      const Status ls = srv->listen_tcp(0);
      r.gate(ls.ok(), "listen: " + ls.to_string());
      if (!ls.ok()) return;
    }
    setup_s.push_back(ms_between(t, Clock::now()) / 1e3);
    if (rep + 1 < a.spec->setups) {
      stop_server(r, *srv);
      srv.reset();
      dur.reset();
      fs::remove_all(opt.dir, ec);
    }
  }
  report_setup(r, setup_s, bc, load_ms, build_s);
  prov_graph(r, g);

  const std::vector<Pair> pool = make_pairs(g.num_vertices(), a.seed, kPoolPairs);
  {
    SsspWorkspace ws;
    r.answer_digest =
        warm_and_digest(dur->engine().snapshot()->engine, ws, pool, a.spec->digest_pairs);
  }
  const UpdateStream stream(g);
  std::atomic<std::uint64_t> request_ids{1};

  // Read capacity first: nproc closed-loop clients on the base epoch,
  // before any writer starts. After the writers, the served graph depends
  // on how many batches landed, which varies from run to run, and so
  // would the capacity. Reads under writes show in the open-loop latency.
  LoadConfig cap = load_config(a.seconds, a.spec->offered_rps, static_cast<int>(a.nproc),
                               a.seed, a.spec->digest_pairs);
  cap.open_s = 0;
  LoadOutcome lo = run_query_load(srv->port(), pool, cap, tr, request_ids);

  // Then the updaters stream closed loop beside nproc - updaters
  // open-loop readers, and stop when the open-loop phase ends.
  std::atomic<bool> stop_updates{false};
  std::mutex mu;
  std::vector<UpdateRecord> updates;
  std::map<std::uint64_t, GraphDelta> delta_at_epoch;
  ClientStats update_clients;
  bool updater_connect_failed = false;
  const auto stream_start = Clock::now();

  auto run_updates = [&](std::uint64_t client_slot, bool tail, int limit) {
    ClientConfig cc;
    cc.rpc_timeout_ms = 10000;
    cc.max_retries = 4;
    cc.seed = a.seed * 7919 + client_slot;
    QueryClient client;
    if (!QueryClient::connect_tcp(srv->port(), cc, &client).ok()) {
      std::lock_guard<std::mutex> lock(mu);
      updater_connect_failed = true;
      return;
    }
    std::vector<UpdateRecord> mine;
    std::vector<std::pair<std::uint64_t, GraphDelta>> applied;
    for (std::uint64_t b = 0; tail ? static_cast<int>(b) < limit : !stop_updates.load(); ++b) {
      const GraphDelta d = stream.batch(a.seed, client_slot, b);
      const std::uint64_t rid = request_ids.fetch_add(1);
      SpanScope req(tr, "request", 0, rid);
      UpdateRecord u;
      u.tail = tail;
      const auto t = Clock::now();
      Status s;
      {
        SpanScope call(tr, "client.update", req.id(), rid);
        s = client.update(d.insert, d.remove, &u.resp);
      }
      u.latency_ms = ms_between(t, Clock::now());
      u.done_ms = ms_between(stream_start, Clock::now());
      u.acked = s.ok() && u.resp.status == StatusCode::kOk;
      if (u.acked) applied.emplace_back(u.resp.epoch, d);
      mine.push_back(u);
    }
    const ClientStats cs = client.client_stats();
    client.close();
    std::lock_guard<std::mutex> lock(mu);
    updates.insert(updates.end(), mine.begin(), mine.end());
    for (auto& [epoch, d] : applied) delta_at_epoch[epoch] = std::move(d);
    add_client_stats(update_clients, cs);
  };

  std::vector<std::thread> updater_threads;
  for (int c = 0; c < updaters; ++c) {
    updater_threads.emplace_back(run_updates, static_cast<std::uint64_t>(c), false, 0);
  }
  LoadConfig lc = load_config(a.seconds, a.spec->offered_rps,
                              static_cast<int>(a.nproc) - updaters, a.seed,
                              a.spec->digest_pairs + static_cast<int>(lo.closed.size()));
  lc.closed_s = 0;
  lc.at_open_end = [&] {
    stop_updates = true;
    for (auto& th : updater_threads) th.join();
  };
  {
    LoadOutcome reads = run_query_load(srv->port(), pool, lc, tr, request_ids);
    lo.open = std::move(reads.open);
    lo.lateness_ms = std::move(reads.lateness_ms);
    lo.realized_rps = reads.realized_rps;
    lo.connect_failed = lo.connect_failed || reads.connect_failed;
    add_client_stats(lo.clients, reads.clients);
  }
  const StatsSnapshot st = srv->stats();

  // Fixed crash image: checkpoint now, then exactly kTailUpdates acked
  // records in the log beyond it.
  {
    SpanScope s(tr, "durability.checkpoint_now");
    const Status cs = dur->checkpoint_now();
    r.gate(cs.ok(), "pre-crash checkpoint: " + cs.to_string());
  }
  run_updates(static_cast<std::uint64_t>(updaters), true, kTailUpdates);
  const StatsSnapshot st_end = srv->stats();
  stop_server(r, *srv);
  r.gate(!updater_connect_failed, "an updater could not connect");

  const std::uint64_t epoch = dur->engine().epoch();
  const std::uint64_t digest = graph_digest(dur->engine().snapshot()->graph);
  const std::uint64_t checkpoints = dur->checkpoints_written();
  std::uint64_t wal_recs = 0;
  const std::uint64_t wal_bytes = dir_wal_bytes(opt.dir, &wal_recs);
  srv.reset();
  dur.reset();  // the simulated crash: no final checkpoint, no clean close

  // Recovery, timed on copies of the crash directory.
  std::vector<double> recovery_s;
  RecoveryReport report;
  std::unique_ptr<Durability> recovered;
  for (int k = 0; k < kRecoveries; ++k) {
    DurabilityOptions ropt = opt;
    ropt.dir = a.workdir + "/recover-" + std::to_string(k);
    fs::remove_all(ropt.dir, ec);
    fs::copy(opt.dir, ropt.dir, fs::copy_options::recursive, ec);
    r.gate(!ec, "copy crash dir: " + ec.message());
    recovered.reset();
    SpanScope s(tr, "recovery.open");
    const auto t = Clock::now();
    const Status os = Durability::open(g, params, ropt, &recovered);
    recovery_s.push_back(ms_between(t, Clock::now()) / 1e3);
    r.gate(os.ok(), "recovery open: " + os.to_string());
    if (!os.ok()) return;
    report = recovered->recovery();
    r.gate(recovered->engine().epoch() == epoch &&
               graph_digest(recovered->engine().snapshot()->graph) == digest,
           "recovered graph digest differs from the pre-crash epoch");
  }

  // Exact distances for every read, on the graph of the epoch that served
  // it: rebuild each epoch from the base graph and the acked deltas.
  std::vector<QueryRecord*> reads;
  for (QueryRecord& q : lo.open) reads.push_back(&q);
  for (QueryRecord& q : lo.closed) reads.push_back(&q);
  std::sort(reads.begin(), reads.end(),
            [](const QueryRecord* x, const QueryRecord* y) { return x->epoch < y->epoch; });
  {
    Graph cur = g;
    std::uint64_t at = 0;
    bool gap = false;
    std::size_t i = 0;
    while (i < reads.size()) {
      const std::uint64_t want = reads[i]->epoch;
      while (at < want && !gap) {
        const auto it = delta_at_epoch.find(at + 1);
        if (it == delta_at_epoch.end()) {
          gap = true;
          break;
        }
        cur = cur.apply_delta(it->second).graph;
        ++at;
      }
      std::size_t j = i;
      while (j < reads.size() && reads[j]->epoch == want) ++j;
      if (!gap) {
        parallel_indices(j - i, a.nproc, [&](std::size_t k) {
          QueryRecord& q = *reads[i + k];
          const Pair& p = pool[q.pool % pool.size()];
          q.exact = st_distance(cur, p.first, p.second);
          q.checked = true;
        });
      }
      i = j;
    }
    while (!gap && at < epoch) {
      const auto it = delta_at_epoch.find(at + 1);
      if (it == delta_at_epoch.end()) {
        gap = true;
        break;
      }
      cur = cur.apply_delta(it->second).graph;
      ++at;
    }
    // A gap (an update applied but never acked) leaves later reads without
    // a graph to check them on: the run fails rather than skip them.
    r.gate(!gap, "an applied epoch has no acked delta; reads after it cannot be checked");
    r.gate(gap || graph_digest(cur) == digest,
           "base graph + acked deltas does not reproduce the served graph");
  }

  report_served(r, *a.spec, lo, lc);
  ClientStats all_clients = lo.clients;
  add_client_stats(all_clients, update_clients);
  report_server(r, st_end, all_clients, lo.clients.requests_sent);

  // Update metrics: the windowed stream (the tail batches only shape the
  // crash image and are counted as attempts).
  std::vector<double> upd_ms, rebuild_ms, ack_overhead;
  std::uint64_t acked = 0, tried = 0, dirty_s = 0, total_s = 0, dirty_c = 0, total_c = 0;
  for (const UpdateRecord& u : updates) {
    ++tried;
    if (u.acked) ++acked;
    if (u.tail) continue;
    upd_ms.push_back(u.latency_ms);
    if (!u.acked) continue;
    rebuild_ms.push_back(u.resp.rebuild_ms);
    ack_overhead.push_back(u.latency_ms - u.resp.rebuild_ms);
    dirty_s += u.resp.dirty_scales;
    total_s += u.resp.total_scales;
    dirty_c += u.resp.dirty_clusters;
    total_c += u.resp.total_clusters;
  }
  std::uint64_t window_acked = 0;
  double window_ms = 0;
  for (const UpdateRecord& u : updates) {
    if (u.tail) continue;
    window_acked += u.acked ? 1 : 0;
    window_ms = std::max(window_ms, u.done_ms);
  }
  r.attempted += tried;
  r.failed += tried - acked;
  r.metric("update_p50_ms", pct(upd_ms, 50), "ms");
  r.metric("update_p90_ms", pct(upd_ms, 90), "ms");
  r.metric("update_ok_rps", share(static_cast<double>(window_acked), window_ms / 1e3), "updates/s");
  r.metric("update_failed_rate", share(static_cast<double>(tried - acked), static_cast<double>(tried)),
           "fraction");
  r.metric("update.samples", static_cast<double>(upd_ms.size()), "count");
  if (upd_ms.size() < 100) {
    std::fprintf(stderr, "repo_bench: update_p90_ms rests on %zu updates (< 100)\n",
                 upd_ms.size());
  }
  r.metric("recovery_s", pct(recovery_s, 50), "s");
  r.metric("dynamic.rebuild_ms_p50", pct(rebuild_ms, 50), "ms");
  r.metric("dynamic.rebuild_ms_p90", pct(rebuild_ms, 90), "ms");
  r.metric("dynamic.dirty_scale_share", share(static_cast<double>(dirty_s), static_cast<double>(total_s)),
           "fraction");
  r.metric("dynamic.dirty_cluster_share",
           share(static_cast<double>(dirty_c), static_cast<double>(total_c)), "fraction");
  r.metric("dynamic.stale_batch_share",
           share(static_cast<double>(st.stale_batches), static_cast<double>(st.batches_served)),
           "fraction");
  r.metric("durability.ack_overhead_ms_p50", pct(ack_overhead, 50), "ms");
  r.metric("wal.records", static_cast<double>(st_end.wal_records), "count");
  r.metric("wal.fsyncs", static_cast<double>(st_end.wal_fsyncs), "count");
  r.metric("wal.bytes_per_update", share(static_cast<double>(wal_bytes), static_cast<double>(wal_recs)),
           "bytes");
  r.metric("durability.checkpoints", static_cast<double>(checkpoints), "count");
  r.metric("durability.deduped", static_cast<double>(st_end.updates_deduped), "count");
  r.metric("recovery.replayed", static_cast<double>(report.replayed), "count");
  r.gate(st_end.wal_fsyncs >= st_end.updates_applied,
         "fsync on every batch, yet wal_fsyncs < updates_applied");
  r.gate(report.replayed == static_cast<std::uint64_t>(kTailUpdates),
         "recovery replayed " + std::to_string(report.replayed) + " records, expected " +
             std::to_string(kTailUpdates));

  if (!tr.on()) {
    zero_metrics(r, {"server.overhead_ms_p50", "recovery.checkpoint_load_ms",
                     "recovery.engine_build_ms", "recovery.replay_ms"},
                 "ms");
    return;
  }
  // Recovery broken down on one more copy of the crash directory.
  const std::string copy = a.workdir + "/recover-breakdown";
  fs::remove_all(copy, ec);
  fs::copy(opt.dir, copy, fs::copy_options::recursive, ec);
  LoadedCheckpoint ckpt;
  double load_ckpt_ms = 0, engine_ms = 0;
  {
    SpanScope s(tr, "recovery.checkpoint_load");
    const auto t = Clock::now();
    r.gate(load_newest_checkpoint(copy, &ckpt).ok() && ckpt.found, "load_newest_checkpoint");
    load_ckpt_ms = ms_between(t, Clock::now());
  }
  {
    SpanScope s(tr, "recovery.engine_build");
    const auto t = Clock::now();
    const DynamicApproxShortestPaths rebuilt(ckpt.graph, params, ckpt.manifest.epoch);
    engine_ms = ms_between(t, Clock::now());
  }
  r.metric("recovery.checkpoint_load_ms", load_ckpt_ms, "ms");
  r.metric("recovery.engine_build_ms", engine_ms, "ms");
  r.metric("recovery.replay_ms", std::max(0.0, report.recovery_ms - load_ckpt_ms - engine_ms), "ms");
  r.metric("server.overhead_ms_p50", 0, "ms");

  // The sssp layer on the recovered (final-epoch) engine.
  std::vector<Pair> pairs;
  std::vector<std::uint64_t> reqs;
  for (const QueryRecord& q : lo.open) {
    if (pairs.size() >= 512) break;
    pairs.push_back(pool[q.pool % pool.size()]);
    reqs.push_back(q.request);
  }
  const auto snap = recovered->engine().snapshot();
  const ReplayStats rs = replay(tr, snap->engine, pairs, reqs);
  report_sssp(r, tr, rs, snap->graph, pairs, 512, 64);
}

// ---- entry points -----------------------------------------------------------

void print_result(const Result& r, const std::string& workload, std::uint64_t seed, bool trace) {
  std::ostringstream o;
  o << "{\"workload\": " << json_str(workload) << ", \"seed\": " << seed
    << ", \"trace\": " << (trace ? "true" : "false")
    << ", \"correct\": " << (r.gate_failures.empty() ? "true" : "false")
    << ", \"gate_failures\": [";
  for (std::size_t i = 0; i < r.gate_failures.size(); ++i) {
    o << (i ? ", " : "") << json_str(r.gate_failures[i]);
  }
  o << "], \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"answer_digest\": " << json_str(std::to_string(r.answer_digest))
    << ", \"provenance\": {";
  for (std::size_t i = 0; i < r.provenance.size(); ++i) {
    o << (i ? ", " : "") << json_str(r.provenance[i].first) << ": " << r.provenance[i].second;
  }
  o << "}, \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    o << (i ? ", " : "") << json_str(name) << ": {\"value\": " << json_num(vu.first)
      << ", \"unit\": " << json_str(vu.second) << "}";
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

Result run_workload(const RunArgs& a, bool trace, const std::string& spans_path) {
  Result r;
  const double calibration_start = host_calibration_ms();
  Tracer tr(trace);
  add_machine_provenance(r);
  r.prov("seed", std::to_string(a.seed));
  r.prov("seconds", json_num(a.seconds));
  const std::string name = a.spec->name;
  if (name == "road-serve") {
    run_road_serve(a, tr, r);
  } else if (name == "rmat-build") {
    run_rmat_build(a, tr, r);
  } else {
    run_road_update(a, tr, r);
  }
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("host.calibration_ms_start", calibration_start, "ms");
  r.metric("host.calibration_ms_end", host_calibration_ms(), "ms");
  if (trace) {
    const std::vector<Span> spans = tr.spans();
    const std::size_t bad = check_spans(spans);
    r.metric("trace.spans", static_cast<double>(spans.size()), "count");
    r.gate(bad == 0, std::to_string(bad) + " spans break nesting or request ids");
    if (!spans_path.empty()) write_spans(spans_path, spans);
  }
  return r;
}

/// Seconds-long check of the harness on tiny inputs: spans nest and carry
/// request ids, client totals reconcile with the server's StatsSnapshot
/// (the per-run gates), and traced and untraced runs agree on the answer
/// digest.
int selftest(const std::string& workdir) {
  fs::create_directories(workdir);
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  struct Tiny {
    WorkloadSpec spec;
    Graph graph;
  };
  const std::vector<Tiny> tiny = {
      {{"road-serve", 2, 60.0, 2, 16, true}, parsh::bench::workload("road", 400, kGraphSeed)},
      {{"rmat-build", 2, 0.0, 0, 4, false},
       with_uniform_weights(parsh::bench::workload("rmat", 2000, kGraphSeed), 1, 8, 2)},
      {{"road-update", 2, 40.0, 1, 16, true},
       with_log_uniform_weights(parsh::bench::workload("road", 400, kGraphSeed), kWeightRatio,
                                kGraphSeed + 17)},
  };
  for (const Tiny& t : tiny) {
    RunArgs a;
    a.spec = &t.spec;
    a.graph_path = workdir + "/" + t.spec.name + ".pcsr";
    a.workdir = workdir + "/" + t.spec.name;
    a.seed = 7;
    a.seconds = 1.0;
    a.nproc = affinity_cpus();
    if (t.spec.name == std::string("road-update") && a.nproc < 2) {
      std::printf("selftest road-update: skipped, it needs nproc >= 2\n");
      continue;
    }
    fs::create_directories(a.workdir);
    write_pcsr_file(a.graph_path, t.graph);
    std::printf("selftest %s\n", t.spec.name);
    const Result plain = run_workload(a, false, "");
    const Result traced = run_workload(a, true, a.workdir + "/spans.json");
    // Tiny runs are too short for the sample-count gates; every other
    // gate (nesting, reconciliation, digests, shutdown) must hold.
    for (const Result* res : {&plain, &traced}) {
      const std::string pass = res == &plain ? "untraced" : "traced";
      std::size_t hard = 0;
      for (const std::string& f : res->gate_failures) {
        if (f.find("needs >=") != std::string::npos) {
          std::printf("  [note] %s: %s\n", pass.c_str(), f.c_str());
        } else {
          expect(false, pass + " gate: " + f);
          ++hard;
        }
      }
      if (hard == 0) {
        expect(true, pass + " gates hold (spans, sent = admitted + shed, fsyncs >= applied, "
                            "recovery digest, clean shutdown)");
      }
    }
    expect(plain.answer_digest == traced.answer_digest, "traced and untraced answer digests match");
    std::size_t spans = 0;
    for (const auto& [name, vu] : traced.metrics) {
      if (name == "trace.spans") spans = static_cast<std::size_t>(vu.first);
    }
    expect(spans > 0, "traced run recorded " + std::to_string(spans) + " spans");
  }
  // The nesting checker itself must reject a child that escapes its
  // parent and a request span without an id.
  std::vector<Span> broken = {{1, 0, 5, "request", 0, 10}, {2, 1, 5, "client.query", 5, 11},
                              {3, 0, 0, "request", 0, 1}};
  expect(check_spans(broken) == 2, "nesting checker flags broken spans");
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const std::string workdir = cli.get("workdir", ".");
    if (cli.get_bool("selftest", false)) return selftest(workdir);
    const std::string gen = cli.get("generate", "");
    if (!gen.empty()) {
      const std::string out = cli.get("out", gen + ".pcsr");
      const Graph g = generate_graph(gen);
      write_pcsr_file(out + ".tmp", g);
      fs::rename(out + ".tmp", out);
      std::printf("generated %s: n=%u m=%llu digest=%llu\n", out.c_str(), g.num_vertices(),
                  static_cast<unsigned long long>(g.num_edges()),
                  static_cast<unsigned long long>(graph_digest(g)));
      return 0;
    }
    RunArgs a;
    a.spec = find_spec(cli.get("workload", ""));
    if (a.spec == nullptr) {
      std::fprintf(stderr, "repo_bench: --workload must be road-serve, rmat-build or road-update\n");
      return 2;
    }
    a.graph_path = cli.get("graph", "");
    a.workdir = workdir;
    a.seed = cli.get_seed("seed", 1);
    a.seconds = cli.get_double("seconds", 10);
    a.nproc = affinity_cpus();
    const bool trace = cli.get_int("trace", 0) != 0;
    fs::create_directories(a.workdir);
    const Result r = run_workload(a, trace, cli.get("spans", ""));
    print_result(r, a.spec->name, a.seed, trace);
    return r.gate_failures.empty() ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repo_bench: %s\n", e.what());
    return 2;
  }
}
