// hmis_perfbench: the repository benchmark program (see README.md here).
//
// Links libhmis and times calls into its public functions from outside.
// One invocation runs one workload for a fixed time budget and prints one
// JSON line as its last line of output:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) record spans around every layer call and report the per-layer
// metrics.  Every answer is checked: it must pass verify_mis, and its
// solve_payload bytes (hashed) must be identical across the 1-lane pass, the
// N-lane pass and, for serve_mix, the served response.  A refused, wrong or
// unverified answer counts as failed.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hmis/hmis.hpp"
#include "hmis/net/client.hpp"
#include "hmis/net/protocol.hpp"
#include "hmis/net/registry.hpp"
#include "hmis/net/server.hpp"
#include "hmis/util/json.hpp"
#include "trace.hpp"

extern char** environ;

namespace {

using namespace hmis;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

#ifndef HMIS_PERFBENCH_BUILD_TYPE
#define HMIS_PERFBENCH_BUILD_TYPE "unknown"
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A pass time estimated from per-request samples (`per_request[i]` holds
/// request i's latency in ms, one sample per pass): the sum over requests of
/// each request's median.  A burst of host noise that slows one request in
/// one pass does not move it.
double sum_of_medians_s(const std::vector<std::vector<double>>& per_request) {
  double ms = 0.0;
  for (const auto& samples : per_request) ms += median(samples);
  return ms / 1e3;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
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

// ---- Metric output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", metrics_[i].name.c_str(),
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                    metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ---- Command line --------------------------------------------------------------

enum class Inject { None, Wrong, Refuse };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  bool tiny = false;          ///< --scale tiny: inputs shrunk ~10x (self-test)
  Inject inject = Inject::None;
  std::string git_sha = "unknown";
  std::size_t lanes = 0;        ///< N, the wide pools' lanes (see parse_args)
  std::size_t connections = 0;  ///< serve_mix client connections = online CPUs
  // serve_mix client mode (the program re-executes itself as the client).
  bool client = false;
  std::uint16_t port = 0;
};

std::uint64_t to_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    throw std::runtime_error("bad value for " + flag + ": " + text);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--client") {
      a.client = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = to_u64(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(to_u64(flag, v));
    } else if (flag == "--trace") {
      a.trace = to_u64(flag, v) != 0;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--scale") {
      if (std::strcmp(v, "tiny") != 0 && std::strcmp(v, "full") != 0) {
        throw std::runtime_error("--scale must be tiny or full");
      }
      a.tiny = std::strcmp(v, "tiny") == 0;
    } else if (flag == "--inject") {
      if (std::strcmp(v, "wrong") == 0) {
        a.inject = Inject::Wrong;
      } else if (std::strcmp(v, "refuse") == 0) {
        a.inject = Inject::Refuse;
      } else if (std::strcmp(v, "none") != 0) {
        throw std::runtime_error("--inject must be none, wrong or refuse");
      }
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--port") {
      a.port = static_cast<std::uint16_t>(to_u64(flag, v));
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (a.workload != "stage_loop" && a.workload != "short_solves" &&
      a.workload != "serve_mix") {
    throw std::runtime_error(
        "--workload must be stage_loop, short_solves or serve_mix");
  }
  if (a.seconds < 1.0) throw std::runtime_error("--seconds must be >= 1");
  // N = half the online CPUs, at least 2.  With a lane on every CPU, each
  // fork waits on the slowest worker wake-up, and on a shared host the
  // N-lane time swung with the neighbours' load (README.md).
  a.lanes = std::max<std::size_t>(2, online_cpus() / 2);
  a.connections = online_cpus();
  return a;
}

// ---- Inputs --------------------------------------------------------------------

enum class Family { Uniform, Mixed, Linear, Planted, Graph, Interval, Sunflower, Sbl };

/// One generated instance.  The meaning of n/m/k/k2/x follows the generator
/// (tools/gen_corpus.sh uses the same parameters for the checked-in corpus).
struct InstanceSpec {
  const char* name;
  Family family;
  std::size_t n, m, k, k2;
  double x;
};

// The corpus families at the corpus sizes.  The seed regenerates the random
// families; interval and sunflower are fixed shapes.
constexpr InstanceSpec kCorpus[] = {
    {"uniform_s", Family::Uniform, 4000, 8000, 3, 0, 0},
    {"uniform_l", Family::Uniform, 40000, 80000, 3, 0, 0},
    {"mixed_s", Family::Mixed, 4000, 7000, 2, 6, 0},
    {"mixed_l", Family::Mixed, 20000, 40000, 2, 8, 0},
    {"linear_s", Family::Linear, 5000, 6000, 3, 0, 0},
    {"linear_l", Family::Linear, 40000, 50000, 3, 0, 0},
    {"planted_s", Family::Planted, 4000, 8000, 3, 0, 0.5},
    {"planted_l", Family::Planted, 30000, 60000, 3, 0, 0.5},
    {"graph_s", Family::Graph, 5000, 10000, 0, 0, 0},
    {"graph_l", Family::Graph, 30000, 60000, 0, 0, 0},
    {"interval_s", Family::Interval, 5000, 0, 8, 3, 0},
    {"interval_l", Family::Interval, 60000, 0, 16, 5, 0},
    {"sunflower_s", Family::Sunflower, 1500, 0, 6, 3, 0},
    {"sunflower_l", Family::Sunflower, 5000, 0, 8, 4, 0},
    {"sbl_s", Family::Sbl, 3000, 0, 10, 0, 0.6},
    {"sbl_l", Family::Sbl, 20000, 0, 12, 0, 0.6},
};

const InstanceSpec& corpus(std::string_view name) {
  for (const InstanceSpec& s : kCorpus) {
    if (name == s.name) return s;
  }
  throw std::logic_error("no corpus instance " + std::string(name));
}

InstanceSpec scaled(InstanceSpec s, double factor) {
  s.n = static_cast<std::size_t>(static_cast<double>(s.n) * factor);
  s.m = static_cast<std::size_t>(static_cast<double>(s.m) * factor);
  return s;
}

Hypergraph generate(const InstanceSpec& s, std::uint64_t seed,
                    par::ThreadPool* pool) {
  switch (s.family) {
    case Family::Uniform:
      return gen::uniform_random(s.n, s.m, s.k, seed, pool);
    case Family::Mixed:
      return gen::mixed_arity(s.n, s.m, s.k, s.k2, seed, pool);
    case Family::Linear:
      return gen::linear_random(s.n, s.m, s.k, seed);
    case Family::Planted:
      return gen::planted_mis(s.n, s.m, s.k, s.x, seed, pool);
    case Family::Graph:
      return gen::random_graph(s.n, s.m, seed, pool);
    case Family::Interval:
      return gen::interval(s.n, s.k, s.k2);
    case Family::Sunflower:
      return gen::sunflower(s.k, s.k2, s.n);
    case Family::Sbl:
      return gen::sbl_regime(s.n, s.x, s.k, seed, pool);
  }
  throw std::logic_error("unknown family");
}

struct Instance {
  std::string name;
  std::string path;        ///< HGB2 file in the work directory
  std::uint64_t digest = 0;
  double megabytes = 0.0;  ///< file size
};

/// One closed-loop request: solve instance `instance` with `algo`/`seed`.
struct Request {
  std::size_t instance = 0;
  core::Algorithm algo = core::Algorithm::Auto;
  std::uint64_t seed = 1;
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return util::splitmix64(seed * 0x9e3779b97f4a7c15ULL + salt) | 1u;
}

// ---- Workloads -------------------------------------------------------------------

using core::Algorithm;

/// The instance list and request list of a workload, a pure function of
/// (workload, seed, scale).  See README.md for why each workload looks the
/// way it does.
struct Workload {
  std::vector<InstanceSpec> specs;
  std::vector<std::string> names;  ///< unique per instance (file names)
  std::vector<Request> requests;  ///< closed-loop pass (serve_mix: empty;
                                  ///< its pass is built from the traffic)
  double latency_limit_ms = 0.0;
};

/// The (instance, algorithm) pairs whose solves take milliseconds: greedy
/// everywhere, KUW on the small inputs and the two large ones where it stays
/// fast, and auto where it resolves to Luby (graphs) or SBL (high-dimension
/// families) rather than BL.
std::vector<std::pair<std::size_t, Algorithm>> short_menu(const Workload& w) {
  std::vector<std::pair<std::size_t, Algorithm>> pairs;
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    const std::string_view name = w.specs[i].name;
    pairs.emplace_back(i, Algorithm::Greedy);
    if (name.ends_with("_s") || name == "sbl_l" || name == "sunflower_l") {
      pairs.emplace_back(i, Algorithm::KUW);
    }
    if (name.starts_with("graph") || name.starts_with("sbl") ||
        name.starts_with("sunflower") || name == "interval_s") {
      pairs.emplace_back(i, Algorithm::Auto);
    }
  }
  return pairs;
}

Workload make_workload(const Args& args) {
  Workload w;
  const double shrink = args.tiny ? 0.1 : 1.0;
  const auto add_pairs = [&](const std::vector<std::pair<std::size_t, Algorithm>>&
                                 pairs,
                             std::size_t seeds_per_pair) {
    // Interleaved: every pair once per seed round, so no instance runs back
    // to back and every pass mixes the whole menu.
    for (std::size_t r = 0; r < seeds_per_pair; ++r) {
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        w.requests.push_back({pairs[p].first, pairs[p].second,
                              derive(args.seed, 1000 * r + p)});
      }
    }
  };
  if (args.workload == "stage_loop") {
    // BL / SBL / auto on the low-dimension families, two instances each, at
    // reduced sizes so no single request dominates the pass: at the corpus
    // size one mixed_s BL solve (690 stages) would be most of it.  mixed
    // stays the slowest family, a quarter of the requests, so the p90
    // latency falls inside its requests rather than on the edge of them.
    for (int copy = 0; copy < 2; ++copy) {
      w.specs.push_back(scaled(corpus("mixed_s"), 0.12 * shrink));
      w.specs.push_back(scaled(corpus("uniform_s"), 0.25 * shrink));
      w.specs.push_back(scaled(corpus("planted_s"), 0.25 * shrink));
      w.specs.push_back(scaled(corpus("linear_s"), 0.25 * shrink));
    }
    std::vector<std::pair<std::size_t, Algorithm>> pairs;
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
      for (const Algorithm a : {Algorithm::BL, Algorithm::SBL, Algorithm::Auto}) {
        pairs.emplace_back(i, a);
      }
    }
    add_pairs(pairs, 1);
    w.latency_limit_ms = 10000.0;
  } else if (args.workload == "short_solves") {
    // Every family at both sizes; greedy everywhere, KUW and auto only where
    // one request stays within a few milliseconds (auto resolves to Luby on
    // graphs and to SBL on the high-dimension families).
    for (const InstanceSpec& s : kCorpus) w.specs.push_back(scaled(s, shrink));
    add_pairs(short_menu(w), 8);
    w.latency_limit_ms = 1000.0;
  } else {
    for (const InstanceSpec& s : kCorpus) {
      if (std::string_view(s.name).ends_with("_s")) {
        w.specs.push_back(scaled(s, shrink));
      }
    }
    w.latency_limit_ms = 250.0;
  }
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    w.names.push_back(std::string(w.specs[i].name) + "-" + std::to_string(i));
  }
  return w;
}

std::string work_path(const Args& args, const std::string& file) {
  return args.work_dir + "/" + file;
}

/// Generate every instance and write it as HGB2 (the format `hmis serve`
/// and the CLI map zero-copy).
std::vector<Instance> write_inputs(const Args& args, const Workload& w,
                                   par::ThreadPool* pool, Tracer* tracer) {
  std::vector<Instance> out;
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    const InstanceSpec& s = w.specs[i];
    Instance in;
    in.name = w.names[i];
    in.path = work_path(args, in.name + ".hgb2");
    Hypergraph h;
    {
      ScopedSpan span(tracer, "setup.generate", Tracer::kNoParent, i);
      h = generate(s, derive(args.seed, 7 + i), pool);
    }
    {
      ScopedSpan span(tracer, "setup.write", Tracer::kNoParent, i);
      save_hypergraph_hgb2(in.path, h);
    }
    in.digest = net::hypergraph_digest(h);
    std::ifstream f(in.path, std::ios::binary | std::ios::ate);
    in.megabytes = static_cast<double>(f.tellg()) / (1024.0 * 1024.0);
    out.push_back(std::move(in));
  }
  return out;
}

/// Use the process-global pool with `lanes` lanes, as `hmis solve --threads`
/// does, so every primitive that defaults to the global pool also runs on
/// exactly `lanes` lanes.
par::ThreadPool& use_lanes(std::size_t lanes) {
  par::set_global_threads(lanes);
  return par::global_pool();
}

// ---- The closed-loop request pipeline ------------------------------------------------

struct Answer {
  bool ok = false;            ///< solved, verified
  std::uint64_t payload = 0;  ///< fnv1a of the solve_payload bytes
  std::size_t payload_bytes = 0;
  std::size_t rounds = 0;
  double ms = 0.0;            ///< request latency
};

/// Per-request probes the traced pass collects.
struct Probe {
  Tracer* tracer = nullptr;
  std::vector<double>* progress_us = nullptr;  ///< on_progress timestamps
  algo::Result* result = nullptr;              ///< copy of the run's result
  Algorithm* resolved = nullptr;
};

void corrupt(core::MisRun& run, const Hypergraph& h) {
  // An injected wrong answer: drop one vertex, so the set is not maximal.
  if (!run.result.independent_set.empty()) run.result.independent_set.pop_back();
  run.verdict = verify_mis(h, run.result.independent_set);
}

/// One request as the CLI runs it: mapped load, find_mis with verify on,
/// solve_payload.  Traced: the same work, split into spans (find_mis with
/// verify off, then verify_mis), with the stage trace and progress stamps
/// recorded.  Never throws; any failure is a failed answer.
Answer solve_request(const Instance& in, const Request& r, par::ThreadPool& pool,
                     Inject inject, std::uint64_t id, const Probe& probe) {
  Answer a;
  Tracer* tracer = probe.tracer;
  const auto t0 = Clock::now();
  try {
    ScopedSpan root(tracer, "request", Tracer::kNoParent, id);
    Hypergraph h;
    {
      ScopedSpan span(tracer, "hypergraph.load", root.id(), id);
      h = load_hypergraph_mapped(in.path);
    }
    util::CancelToken refused;
    if (inject == Inject::Refuse) refused.cancel();
    core::FindOptions opt;
    opt.seed = r.seed;
    opt.pool = &pool;
    opt.cancel = &refused;
    opt.verify = tracer == nullptr;
    opt.record_trace = tracer != nullptr;
    if (probe.progress_us != nullptr) {
      probe.progress_us->clear();
      opt.on_progress = [&](std::size_t) {
        probe.progress_us->push_back(tracer->now_us());
      };
    }
    core::MisRun run;
    {
      ScopedSpan span(tracer, "core.find_mis", root.id(), id);
      if (probe.progress_us != nullptr) {
        probe.progress_us->push_back(tracer->now_us());
      }
      run = core::find_mis(h, r.algo, opt);
    }
    if (tracer != nullptr) {
      ScopedSpan span(tracer, "hypergraph.verify", root.id(), id);
      run.verdict = verify_mis(h, run.result.independent_set);
    }
    if (inject == Inject::Wrong) corrupt(run, h);
    std::string payload;
    {
      ScopedSpan span(tracer, "net.encode", root.id(), id);
      payload = net::solve_payload(run);
    }
    a.ok = run.result.success && run.verdict.ok();
    a.payload = fnv1a(payload);
    a.payload_bytes = payload.size();
    a.rounds = run.result.rounds;
    if (probe.result != nullptr) *probe.result = std::move(run.result);
    if (probe.resolved != nullptr) *probe.resolved = run.algorithm;
  } catch (const std::exception&) {
    a.ok = false;
  }
  a.ms = seconds_since(t0) * 1e3;
  return a;
}

struct Pass {
  double seconds = 0.0;
  std::vector<Answer> answers;
};

struct Gate {
  std::vector<std::uint64_t> reference;  ///< payload hash per request
  std::vector<char> reference_ok;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Check a pass against the reference (the first pass checked becomes the
  /// reference).  Marks every answer ok/failed in place.
  void check(Pass& pass) {
    if (reference.empty()) {
      for (const Answer& a : pass.answers) {
        reference.push_back(a.payload);
        reference_ok.push_back(a.ok ? 1 : 0);
      }
    }
    for (std::size_t i = 0; i < pass.answers.size(); ++i) {
      Answer& a = pass.answers[i];
      a.ok = a.ok && reference_ok[i] != 0 && a.payload == reference[i];
      ++attempted;
      if (!a.ok) ++failed;
    }
  }
};

Pass run_pass(const std::vector<Instance>& inputs,
              const std::vector<Request>& requests, std::size_t lanes,
              Inject inject = Inject::None) {
  par::ThreadPool& pool = use_lanes(lanes);
  Pass pass;
  pass.answers.reserve(requests.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    pass.answers.push_back(solve_request(inputs[r.instance], r, pool,
                                         i == 0 ? inject : Inject::None, i,
                                         Probe{}));
  }
  pass.seconds = seconds_since(t0);
  return pass;
}

// ---- serve_mix traffic ----------------------------------------------------------------

enum class Kind : int { Warm = 0, Hit = 1, Miss = 2, Load = 3 };

struct Planned {
  double due_s = 0.0;  ///< offset from the open loop's start
  Kind kind = Kind::Miss;
  Request key;         ///< solves: (graph, algo, seed); loads: graph only
};

struct Traffic {
  double rate = 0.0;      ///< offered requests per second
  double duration_s = 0.0;
  std::vector<Planned> warm;  ///< sent once, closed loop, before the clock
  std::vector<Planned> open;  ///< the timed open loop
};

/// The serve_mix schedule, a pure function of (seed, scale, run length).
/// Rebuilt identically by the server process and the client process.
Traffic plan_traffic(const Args& args, const Workload& w) {
  const std::size_t graphs = w.specs.size();
  // Fresh-seed solves stay cheap: KUW only where it takes ~2 ms.
  std::vector<std::pair<std::size_t, Algorithm>> menu;
  for (const auto& [g, a] : short_menu(w)) {
    const std::string_view name = w.specs[g].name;
    if (a != Algorithm::KUW || name.starts_with("sbl") ||
        name.starts_with("sunflower")) {
      menu.emplace_back(g, a);
    }
  }
  Traffic t;
  // Constant-rate open loop over 30% of the run; the rest is the
  // closed-loop passes that time and check every served solve.  30/s is
  // two thirds of what N connections complete at this commit (README.md).
  t.rate = 30.0;
  t.duration_s = std::max(1.0, 0.3 * args.seconds);
  // Repeated keys: every graph with greedy and KUW at one fixed seed each.
  std::vector<Request> hot;
  for (std::size_t g = 0; g < graphs; ++g) {
    for (const Algorithm a : {Algorithm::Greedy, Algorithm::KUW}) {
      hot.push_back({g, a, derive(args.seed, 500 + hot.size())});
    }
  }
  for (const Request& k : hot) t.warm.push_back({0.0, Kind::Warm, k});
  const auto n = static_cast<std::size_t>(t.rate * t.duration_s);
  for (std::size_t i = 0; i < n; ++i) {
    Planned p;
    p.due_s = static_cast<double>(i) / t.rate;
    // The shares and the menu cycle in a fixed order, so every seed offers
    // the same mix; the seed picks only the inputs and the solver seeds.
    if (i % 50 == 49) {
      p.kind = Kind::Load;
      p.key.instance = i % graphs;
    } else if (i % 2 == 0) {
      p.kind = Kind::Hit;
      p.key = hot[(i / 2) % hot.size()];
    } else {
      p.kind = Kind::Miss;
      const auto& [graph, algo] = menu[(i / 2) % menu.size()];
      p.key = {graph, algo, derive(args.seed, 1'000'000 + i)};  // fresh seed
    }
    t.open.push_back(p);
  }
  return t;
}

std::string solve_json(const std::string& graph, const Request& r) {
  return "{\"op\":\"solve\",\"graph\":\"" + graph + "\",\"algo\":\"" +
         std::string(core::algorithm_name(r.algo)) +
         "\",\"seed\":" + std::to_string(r.seed) + "}";
}

/// What the client observed for one request.
struct Record {
  int kind = 0;
  std::size_t index = 0;   ///< into warm (Warm) or open (others)
  bool ok = false;         ///< transport ok and (loads) digest confirmed
  std::uint64_t payload = 0;
  double due_ms = 0.0, sent_ms = 0.0, done_ms = 0.0;
  int attempts = 1;
};

/// The serve_mix client: a separate process with one connection per online
/// CPU driving the open loop.  Writes one Record per line.
int run_client(const Args& args) {
  const Workload w = make_workload(args);
  const Traffic traffic = plan_traffic(args, w);
  std::vector<std::string> bytes, digests;
  for (const std::string& name : w.names) {
    const std::string path = work_path(args, name + ".hgb2");
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    bytes.push_back(os.str());
    digests.push_back(net::digest_hex(
        net::hypergraph_digest(load_hypergraph_mapped(path))));
  }
  net::RetryPolicy retry;
  retry.max_attempts = 3;

  const auto origin = Clock::now();
  const auto ms_since = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - origin).count();
  };
  // The first fresh-seed solve carries any injected fault.
  std::size_t inject_at = traffic.open.size();
  for (std::size_t i = 0; i < traffic.open.size(); ++i) {
    if (traffic.open[i].kind == Kind::Miss) {
      inject_at = i;
      break;
    }
  }
  const auto send_one = [&](net::Client& c, const Planned& p, std::size_t index,
                         Record* rec) {
    rec->kind = static_cast<int>(p.kind);
    rec->index = index;
    net::Client::Reply reply;
    if (p.kind == Kind::Load) {
      const std::string name = "upload-" + std::to_string(index / 50 % 4);
      reply = c.load(name, bytes[p.key.instance]);
      rec->ok = reply.transport_ok &&
                reply.payload.find("\"digest\":\"" + digests[p.key.instance] +
                                   "\"") != std::string::npos;
    } else {
      const bool refuse = args.inject == Inject::Refuse && index == inject_at &&
                          p.kind == Kind::Miss;
      reply = c.request(
          solve_json(refuse ? "absent-graph" : w.names[p.key.instance], p.key));
      if (args.inject == Inject::Wrong && index == inject_at &&
          p.kind == Kind::Miss && !reply.payload.empty()) {
        reply.payload.back() = ' ';
      }
      rec->ok = reply.transport_ok;
      rec->payload = fnv1a(reply.payload);
    }
    rec->attempts = reply.attempts;
  };

  std::vector<Record> warm(traffic.warm.size());
  {
    net::Client c;
    c.set_retry(retry);
    if (!c.connect("127.0.0.1", args.port)) return 3;
    for (std::size_t i = 0; i < traffic.warm.size(); ++i) {
      warm[i].sent_ms = ms_since(Clock::now());
      send_one(c, traffic.warm[i], i, &warm[i]);
      warm[i].done_ms = ms_since(Clock::now());
      warm[i].due_ms = warm[i].sent_ms;
    }
  }

  std::vector<Record> open(traffic.open.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> connect_failed{false};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> conns;
  for (std::size_t c = 0; c < args.connections; ++c) {
    conns.emplace_back([&] {
      net::Client client;
      client.set_retry(retry);
      if (!client.connect("127.0.0.1", args.port)) {
        connect_failed = true;
        return;
      }
      for (std::size_t i = next++; i < traffic.open.size(); i = next++) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         traffic.open[i].due_s));
        std::this_thread::sleep_until(due);
        Record& rec = open[i];
        rec.due_ms = ms_since(due);
        rec.sent_ms = ms_since(Clock::now());
        send_one(client, traffic.open[i], i, &rec);
        rec.done_ms = ms_since(Clock::now());
      }
    });
  }
  for (std::thread& t : conns) t.join();
  if (connect_failed) return 3;

  std::FILE* f = std::fopen(work_path(args, "client.tsv").c_str(), "w");
  if (f == nullptr) return 4;
  for (const auto* list : {&warm, &open}) {
    for (const Record& r : *list) {
      std::fprintf(f, "%d %zu %d %llu %.6f %.6f %.6f %d\n", r.kind, r.index,
                   r.ok ? 1 : 0, static_cast<unsigned long long>(r.payload),
                   r.due_ms, r.sent_ms, r.done_ms, r.attempts);
    }
  }
  return std::fclose(f) == 0 ? 0 : 4;
}

std::vector<Record> read_records(const std::string& path) {
  std::vector<Record> out;
  std::ifstream in(path);
  Record r;
  int ok = 0;
  unsigned long long payload = 0;
  while (in >> r.kind >> r.index >> ok >> payload >> r.due_ms >> r.sent_ms >>
         r.done_ms >> r.attempts) {
    r.ok = ok != 0;
    r.payload = payload;
    out.push_back(r);
  }
  return out;
}

/// Spawn this executable as the serve_mix client and wait for it.
int spawn_client(const Args& args, std::uint16_t port) {
  const std::string seconds = std::to_string(static_cast<long>(args.seconds));
  const std::string seed = std::to_string(args.seed);
  const std::string port_s = std::to_string(port);
  const char* inject = args.inject == Inject::Wrong    ? "wrong"
                       : args.inject == Inject::Refuse ? "refuse"
                                                       : "none";
  std::vector<std::string> argv_s = {
      "hmis_perfbench", "--client",  "--workload", args.workload,
      "--seed",         seed,        "--seconds",  seconds,
      "--work-dir",     args.work_dir, "--scale",  args.tiny ? "tiny" : "full",
      "--inject",       inject,      "--port",     port_s};
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                  environ) != 0) {
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---- Per-layer measurement helpers ----------------------------------------------------

constexpr const char* kAlgoKeys[] = {"greedy", "kuw", "bl", "sbl", "auto"};
constexpr Algorithm kAutoChoices[] = {Algorithm::Luby, Algorithm::BL,
                                      Algorithm::SBL};

/// What the traced pass adds up for the per-layer metrics.
struct LayerTotals {
  std::map<std::string, std::vector<double>> find_ms;  ///< per requested algo
  std::map<std::string, std::uint64_t> rounds_by_algo;
  std::map<std::string, std::uint64_t> auto_choice;
  std::vector<double> early_us, late_us;
  std::uint64_t live_edges = 0, edges_deleted = 0, marked = 0, unmarked = 0;
  std::uint64_t work = 0, depth = 0, resamples = 0, inner_stages = 0;
};

/// The traced pass: the closed-loop pipeline at 1 lane with spans, plus the
/// solver-internal counters the per-layer metrics need.  Each traced request
/// is paired with an untraced run of the same request, collected in
/// `*plain`, so the two runs of a pair see the same host state; whichever
/// runs second finds the input warm, so callers alternate `plain_first`.
Pass traced_pass(const std::vector<Instance>& inputs,
                 const std::vector<Request>& requests, Tracer* tracer,
                 LayerTotals* lt, Pass* plain, bool plain_first) {
  par::ThreadPool& pool = use_lanes(1);
  Pass pass;
  std::vector<double> stamps;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const auto run_plain = [&] {
      plain->answers.push_back(solve_request(inputs[r.instance], r, pool,
                                             Inject::None, i, Probe{}));
    };
    if (plain_first) run_plain();
    algo::Result result;
    Algorithm resolved = r.algo;
    const std::size_t spans_before = tracer->spans().size();
    pass.answers.push_back(solve_request(inputs[r.instance], r, pool,
                                         Inject::None, i,
                                         Probe{tracer, &stamps, &result,
                                               &resolved}));
    if (!plain_first) run_plain();
    // Bookkeeping below is outside every span of this request.
    const std::string key(core::algorithm_name(r.algo));
    for (std::size_t s = spans_before; s < tracer->spans().size(); ++s) {
      const Tracer::Span& sp = tracer->spans()[s];
      if (sp.name == "core.find_mis") {
        lt->find_ms[key].push_back((sp.end_us - sp.start_us) / 1e3);
      }
    }
    lt->rounds_by_algo[key] += result.rounds;
    if (r.algo == Algorithm::Auto) {
      ++lt->auto_choice[std::string(core::algorithm_name(resolved))];
    }
    if (stamps.size() >= 5) {  // start stamp + >= 4 rounds
      const std::size_t rounds = stamps.size() - 1;
      for (std::size_t k = 1; k <= rounds; ++k) {
        const double gap = stamps[k] - stamps[k - 1];
        if (k <= rounds / 4) lt->early_us.push_back(gap);
        if (k > rounds - rounds / 4) lt->late_us.push_back(gap);
      }
    }
    for (const algo::StageStats& st : result.trace) {
      lt->live_edges += st.live_edges;
      lt->edges_deleted += st.edges_deleted;
      lt->marked += st.marked;
      lt->unmarked += st.unmarked;
    }
    lt->work += result.metrics.work;
    lt->depth += result.metrics.depth;
    if (resolved == Algorithm::SBL) {
      lt->resamples += result.resamples;
      lt->inner_stages += result.inner_stages;
    }
  }
  pass.seconds = seconds_since(t0);
  return pass;
}

/// One probe of each distinct input: the layer calls a request makes
/// implicitly (plan, Δ(H), residual build, dedupe) or the server makes
/// (digest, request parse), each timed in its own span.
void probe_inputs(const std::vector<Instance>& inputs, Tracer* tracer) {
  par::ThreadPool& pool = use_lanes(1);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ScopedSpan root(tracer, "probe", Tracer::kNoParent, i);
    const Hypergraph h = load_hypergraph_mapped(inputs[i].path);
    {
      ScopedSpan span(tracer, "core.plan", root.id(), i);
      (void)core::choose_algorithm(h);
    }
    {
      ScopedSpan span(tracer, "hypergraph.degree_stats", root.id(), i);
      (void)compute_degree_stats(h);
    }
    std::optional<MutableHypergraph> mh;
    {
      ScopedSpan span(tracer, "hypergraph.residual_build", root.id(), i);
      mh.emplace(h, &pool);
    }
    {
      ScopedSpan span(tracer, "hypergraph.dedupe", root.id(), i);
      (void)mh->dedupe_and_minimalize();
    }
    {
      ScopedSpan span(tracer, "net.digest", root.id(), i);
      (void)net::hypergraph_digest(h);
    }
    {
      const std::string req =
          solve_json(inputs[i].name, {i, Algorithm::Auto, 1});
      net::Request parsed;
      std::string error;
      ScopedSpan span(tracer, "net.parse", root.id(), i);
      (void)net::parse_request(req, &parsed, &error);
    }
  }
}


// ---- Runs ---------------------------------------------------------------------------------

/// Set-up is repeated and reported as the median, so a slow first pool
/// start or page-cache miss does not decide it: at least kSetupMinReps
/// times and until kSetupMinSeconds have passed, at most kSetupMaxReps.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 1.0;

bool more_setups(const std::vector<double>& done) {
  double total = 0.0;
  for (const double s : done) total += s;
  const auto n = static_cast<int>(done.size());
  return n < kSetupMinReps || (n < kSetupMaxReps && total < kSetupMinSeconds);
}

struct Report {
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> meta;  ///< JSON values

  void note(std::string key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    meta.emplace_back(std::move(key), buf);
  }
  void note(std::string key, const std::string& v) {
    meta.emplace_back(std::move(key), "\"" + util::json_escape(v) + "\"");
  }
  void count(const Gate& g) {
    attempted += g.attempted;
    failed += g.failed;
  }
};

/// Build fresh 1-lane and N-lane pools, generate and write the inputs on the
/// N-lane one, then drop both; seconds taken.  The pools are the set-up's
/// own: the global pools the passes use are reused once built, so timing
/// those would count a pool build in the first set-up only.
double set_up(const Args& args, const Workload& w,
              std::vector<Instance>* inputs, Tracer* tracer) {
  (void)use_lanes(args.lanes);  // the default grain follows the N-lane width
  const auto t0 = Clock::now();
  {
    const par::ThreadPool narrow(1);
    par::ThreadPool wide(args.lanes);
    *inputs = write_inputs(args, w, &wide, tracer);
  }
  return seconds_since(t0);
}

std::uint64_t input_digest(const std::vector<Instance>& inputs) {
  std::uint64_t h = 0;
  for (const Instance& in : inputs) h = util::mix64(h ^ in.digest);
  return h;
}

std::uint64_t total_rounds(const Pass& p) {
  std::uint64_t r = 0;
  for (const Answer& a : p.answers) r += a.rounds;
  return r;
}

void add_latency_metrics(Report* rep, const std::vector<double>& latency_ms,
                         std::uint64_t good, double good_seconds) {
  rep->metrics.add("latency_ms.p50", median(latency_ms), "ms");
  rep->metrics.add("latency_ms.p90", percentile(latency_ms, 0.90), "ms");
  rep->metrics.add("goodput_rps", static_cast<double>(good) / good_seconds,
                   "1/s");
  rep->note("latency_samples", static_cast<double>(latency_ms.size()));
}

/// Timed closed-loop passes over `requests`: a 1-lane reference pass (every
/// later answer must match it), an N-lane warm-up pass, then alternating
/// 1-lane / N-lane pass pairs until `budget_s` is spent.
struct Timed {
  Pass ref;
  std::vector<double> t1, tn;      ///< pass wall times
  std::vector<std::vector<double>> t1_ms, tn_ms;  ///< per request, per pass
  std::vector<double> latency_ms;  ///< every request of every N-lane pass
  std::uint64_t good = 0;          ///< of those: correct and within limit
};

Timed timed_passes(const Args& args, const std::vector<Instance>& inputs,
                   const std::vector<Request>& requests, double limit_ms,
                   double budget_s, Inject inject, Gate* gate) {
  Timed t;
  t.t1_ms.resize(requests.size());
  t.tn_ms.resize(requests.size());
  const auto window = Clock::now();
  t.ref = run_pass(inputs, requests, 1);
  gate->check(t.ref);
  Pass warm = run_pass(inputs, requests, args.lanes);
  gate->check(warm);
  // At least one timed pair; then another only while the slowest pair so
  // far still fits in the budget.
  double pair_s = t.ref.seconds + warm.seconds;
  bool first = true;
  for (int k = 0; k == 0 || seconds_since(window) + pair_s <= budget_s; ++k) {
    const auto pair_start = Clock::now();
    for (const bool one_lane : {k % 2 == 0, k % 2 != 0}) {
      Pass p = run_pass(inputs, requests, one_lane ? 1 : args.lanes,
                        first ? inject : Inject::None);
      first = false;
      gate->check(p);
      for (std::size_t i = 0; i < p.answers.size(); ++i) {
        (one_lane ? t.t1_ms : t.tn_ms)[i].push_back(p.answers[i].ms);
      }
      if (one_lane) {
        t.t1.push_back(p.seconds);
        continue;
      }
      t.tn.push_back(p.seconds);
      for (const Answer& a : p.answers) {
        t.latency_ms.push_back(a.ms);
        if (a.ok && a.ms <= limit_ms) ++t.good;
      }
    }
    pair_s = std::max(pair_s, seconds_since(pair_start));
  }
  return t;
}

void add_solve_metrics(Report* rep, const std::vector<double>& setups,
                       const Timed& t) {
  rep->metrics.add("setup_s", median(setups), "s");
  rep->metrics.add("solve_s.t1", sum_of_medians_s(t.t1_ms), "s");
  rep->metrics.add("solve_s.tN", sum_of_medians_s(t.tn_ms), "s");
  rep->note("pass_s.t1_median", median(t.t1));
  rep->note("pass_s.tN_median", median(t.tn));
  rep->metrics.add("rounds", static_cast<double>(total_rounds(t.ref)), "count");
  rep->note("passes_t1", static_cast<double>(t.t1.size()));
  rep->note("passes_tN", static_cast<double>(t.tn.size()));
  rep->note("requests_per_pass", static_cast<double>(t.ref.answers.size()));
}

/// stage_loop / short_solves, untraced.  A closed loop's request latency is
/// its service time, sampled from every request of every N-lane pass.
void closed_loop(const Args& args, const Workload& w, Report* rep) {
  std::vector<double> setups;
  std::vector<Instance> inputs;
  while (more_setups(setups)) {
    setups.push_back(set_up(args, w, &inputs, nullptr));
  }
  Gate gate;
  const Timed t = timed_passes(args, inputs, w.requests, w.latency_limit_ms,
                               args.seconds, args.inject, &gate);
  rep->count(gate);
  add_solve_metrics(rep, setups, t);
  // Goodput over the N-lane passes, each pass timed like solve_s.tN.
  add_latency_metrics(rep, t.latency_ms, t.good,
                      sum_of_medians_s(t.tn_ms) *
                          static_cast<double>(t.tn.size()));
  rep->metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep->note("input_digest", net::digest_hex(input_digest(inputs)));
}

/// Traced 1-lane passes a traced run makes, half of them running each
/// request's untraced twin first.  The tracing overhead is the sum over
/// requests of the median, across these passes, of the request's traced
/// minus untraced time.
constexpr int kOverheadPasses = 4;

/// Per-layer metrics shared by every workload's traced run: a 1-lane
/// reference pass (also the warm-up), kOverheadPasses traced 1-lane passes
/// with their untraced twins (only the first feeds the spans and the layer
/// totals), the input probes, and an N-lane pass metered by the scheduler
/// and data-plane counters.
void layer_passes(const Args& args, const std::vector<Instance>& inputs,
                  const std::vector<Request>& requests, Gate* gate,
                  Tracer* tracer, Report* rep) {
  Pass ref = run_pass(inputs, requests, 1);  // warm-up and reference
  gate->check(ref);
  LayerTotals lt;
  Pass traced;
  std::vector<std::vector<double>> plain_ms(requests.size());
  std::vector<std::vector<double>> traced_ms(requests.size());
  std::vector<std::vector<double>> extra_ms(requests.size());
  for (int k = 0; k < kOverheadPasses; ++k) {
    Tracer spare;
    LayerTotals spare_lt;
    Pass plain;
    const bool plain_first = k % 2 == 0;
    Pass p = k == 0 ? traced_pass(inputs, requests, tracer, &lt, &plain,
                                  plain_first)
                    : traced_pass(inputs, requests, &spare, &spare_lt, &plain,
                                  plain_first);
    gate->check(plain);
    gate->check(p);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      plain_ms[i].push_back(plain.answers[i].ms);
      traced_ms[i].push_back(p.answers[i].ms);
      extra_ms[i].push_back(p.answers[i].ms - plain.answers[i].ms);
    }
    if (k == 0) traced = std::move(p);
  }
  probe_inputs(inputs, tracer);

  par::ThreadPool& pool = use_lanes(args.lanes);
  const par::SchedulerStats sched0 = pool.stats();
  const DataPlaneStats dp0 = data_plane_stats();
  Pass wide = run_pass(inputs, requests, args.lanes);
  const par::SchedulerStats sched = pool.stats() - sched0;
  const DataPlaneStats dp = data_plane_stats() - dp0;
  gate->check(wide);

  MetricSet& m = rep->metrics;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  m.add("hypergraph.degree_stats_ms",
        tracer->total_ms("hypergraph.degree_stats"), "ms");
  m.add("hypergraph.dedupe_ms", tracer->total_ms("hypergraph.dedupe"), "ms");
  m.add("hypergraph.stage_live_edges", static_cast<double>(lt.live_edges),
        "count");
  m.add("hypergraph.stage_edges_deleted", static_cast<double>(lt.edges_deleted),
        "count");
  m.add("hypergraph.stage_useful_ratio",
        ratio(static_cast<double>(lt.edges_deleted),
              static_cast<double>(lt.live_edges)),
        "ratio");
  m.add("hypergraph.data_plane.sweeps", static_cast<double>(dp.sweeps), "count");
  m.add("hypergraph.data_plane.swept_entries",
        static_cast<double>(dp.swept_entries), "count");
  m.add("hypergraph.data_plane.stale_deposited",
        static_cast<double>(dp.stale_deposited), "count");
  m.add("hypergraph.data_plane.sparse_gathers",
        static_cast<double>(dp.sparse_gathers), "count");
  m.add("hypergraph.data_plane.dense_gathers",
        static_cast<double>(dp.dense_gathers), "count");
  double load_mb = 0.0;
  std::uint64_t response_bytes = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    load_mb += inputs[requests[i].instance].megabytes;
    response_bytes += traced.answers[i].payload_bytes;
  }
  m.add("hypergraph.load_ms", tracer->total_ms("hypergraph.load"), "ms");
  m.add("hypergraph.load_mb", load_mb, "MB");
  m.add("hypergraph.residual_build_ms",
        tracer->total_ms("hypergraph.residual_build"), "ms");
  m.add("hypergraph.verify_ms", tracer->total_ms("hypergraph.verify"), "ms");

  m.add("core.plan_ms", tracer->total_ms("core.plan"), "ms");
  for (const Algorithm a : kAutoChoices) {
    const std::string name(core::algorithm_name(a));
    m.add("core.auto_choice." + name,
          static_cast<double>(lt.auto_choice[name]), "count");
  }
  for (const char* key : kAlgoKeys) {
    m.add(std::string("core.find_mis_ms.") + key, median(lt.find_ms[key]),
          "ms");
  }
  m.add("core.sbl_resamples", static_cast<double>(lt.resamples), "count");
  m.add("core.sbl_inner_stages", static_cast<double>(lt.inner_stages), "count");

  for (const char* key : kAlgoKeys) {
    double total_ms = 0.0;
    for (const double v : lt.find_ms[key]) total_ms += v;
    m.add(std::string("algo.ms_per_round.") + key,
          ratio(total_ms, static_cast<double>(lt.rounds_by_algo[key])), "ms");
  }
  m.add("algo.round_us.early", median(lt.early_us), "us");
  m.add("algo.round_us.late", median(lt.late_us), "us");
  m.add("algo.unmark_ratio",
        ratio(static_cast<double>(lt.unmarked), static_cast<double>(lt.marked)),
        "ratio");
  m.add("algo.work", static_cast<double>(lt.work), "count");
  m.add("algo.depth", static_cast<double>(lt.depth), "count");

  const auto per_request = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), static_cast<double>(requests.size()));
  };
  m.add("par.spawns", per_request(sched.spawns), "count");
  m.add("par.steals", per_request(sched.steals), "count");
  m.add("par.joins", per_request(sched.joins), "count");
  m.add("par.steal_ratio",
        ratio(static_cast<double>(sched.steals),
              static_cast<double>(sched.spawns)),
        "ratio");

  m.add("net.encode_ms", tracer->total_ms("net.encode"), "ms");
  m.add("net.response_bytes", static_cast<double>(response_bytes), "bytes");
  m.add("net.parse_us", tracer->total_ms("net.parse") * 1e3, "us");
  m.add("net.digest_ms", tracer->total_ms("net.digest"), "ms");
  m.add("trace.overhead_ms", sum_of_medians_s(extra_ms) * 1e3, "ms");
  rep->note("untraced_pass_s", sum_of_medians_s(plain_ms));
  rep->note("traced_pass_s", sum_of_medians_s(traced_ms));
}

/// Serve-side per-layer metrics; zero on the closed-loop workloads, which
/// never start a server.
void serve_layer_metrics(const net::ServeStats* stats,
                         const std::vector<Record>& records, Report* rep) {
  MetricSet& m = rep->metrics;
  std::vector<double> hit, miss, load, lag;
  std::uint64_t retries = 0;
  for (const Record& r : records) {
    if (r.kind == static_cast<int>(Kind::Warm)) continue;
    const double latency = r.done_ms - r.due_ms;
    (r.kind == static_cast<int>(Kind::Hit)    ? hit
     : r.kind == static_cast<int>(Kind::Miss) ? miss
                                              : load)
        .push_back(latency);
    lag.push_back(r.sent_ms - r.due_ms);
    retries += static_cast<std::uint64_t>(r.attempts - 1);
  }
  const net::ServeStats s = stats != nullptr ? *stats : net::ServeStats{};
  m.add("engine.solves", static_cast<double>(s.solves), "count");
  m.add("engine.peak_inflight", static_cast<double>(s.engine.peak_inflight),
        "count");
  m.add("engine.failed", static_cast<double>(s.engine.failed), "count");
  m.add("engine.cancelled", static_cast<double>(s.engine.cancelled), "count");
  m.add("net.hit_ms.p50", median(hit), "ms");
  m.add("net.miss_ms.p50", median(miss), "ms");
  m.add("net.load_ms.p50", median(load), "ms");
  const double lookups = static_cast<double>(s.cache.hits + s.cache.misses);
  m.add("net.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(s.cache.hits) / lookups : 0.0,
        "ratio");
  m.add("net.cache_hits", static_cast<double>(s.cache.hits), "count");
  m.add("net.cache_misses", static_cast<double>(s.cache.misses), "count");
  m.add("net.cache_evictions", static_cast<double>(s.cache.evictions), "count");
  m.add("net.rejected", static_cast<double>(s.rejected), "count");
  m.add("net.retries", static_cast<double>(retries), "count");
  m.add("net.gen_lag_ms.p99", percentile(lag, 0.99), "ms");
}

void closed_loop_traced(const Args& args, const Workload& w, Tracer* tracer,
                        Report* rep) {
  std::vector<Instance> inputs;
  (void)set_up(args, w, &inputs, tracer);
  Gate gate;
  layer_passes(args, inputs, w.requests, &gate, tracer, rep);
  serve_layer_metrics(nullptr, {}, rep);
  rep->count(gate);
  rep->note("input_digest", net::digest_hex(input_digest(inputs)));
}

/// serve_mix: set up (inputs, pools, server with every graph loaded), run
/// the client's open loop, then check every served answer against 1-lane
/// and N-lane blocking passes over the distinct solve keys.
void serve_mix(const Args& args, const Workload& w, Tracer* tracer,
               Report* rep) {
  std::vector<double> setups;
  std::vector<Instance> inputs;
  std::unique_ptr<net::Server> server;
  net::ServeOptions opt;
  opt.threads = args.lanes;
  while (setups.empty() || (tracer == nullptr && more_setups(setups))) {
    if (server) server->stop();
    server.reset();
    const auto t0 = Clock::now();
    (void)set_up(args, w, &inputs, tracer);
    ScopedSpan span(tracer, "setup.server", Tracer::kNoParent, 0);
    server = std::make_unique<net::Server>(opt);
    for (const Instance& in : inputs) {
      (void)server->core().registry().load_file(in.name, in.path);
    }
    server->start();
    setups.push_back(seconds_since(t0));
  }

  const Traffic traffic = plan_traffic(args, w);
  const auto window = Clock::now();
  const int rc = spawn_client(args, server->port());
  const net::ServeStats stats = server->core().stats();
  server->stop();
  server.reset();
  if (rc != 0) {
    throw std::runtime_error("serve_mix client failed with status " +
                             std::to_string(rc));
  }
  const std::vector<Record> records =
      read_records(work_path(args, "client.tsv"));
  if (records.size() != traffic.warm.size() + traffic.open.size()) {
    throw std::runtime_error("serve_mix client wrote an incomplete record");
  }

  // The closed-loop pass of this workload: every solve it served, in the
  // order served (repeated keys included).
  const auto key_of = [&](const Record& r) -> const Planned& {
    return r.kind == static_cast<int>(Kind::Warm) ? traffic.warm[r.index]
                                                  : traffic.open[r.index];
  };
  std::vector<Request> keys;
  std::vector<std::size_t> pass_index(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Planned& p = key_of(records[i]);
    if (p.kind == Kind::Load) continue;
    pass_index[i] = keys.size();
    keys.push_back(p.key);
  }
  // Every served answer is checked against the verified 1-lane payload,
  // which the passes below produce first.
  Gate gate;
  Timed t;
  if (tracer != nullptr) {
    layer_passes(args, inputs, keys, &gate, tracer, rep);
    serve_layer_metrics(&stats, records, rep);
  } else {
    // Faults are injected by the client here, not by the passes.
    t = timed_passes(args, inputs, keys, w.latency_limit_ms,
                     args.seconds - seconds_since(window), Inject::None, &gate);
  }

  // A solve must match the reference payload byte for byte; a load must
  // have been acknowledged with its digest.
  std::uint64_t good = 0;
  std::vector<double> latency;
  double first_due_ms = 1e300, last_done_ms = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const Planned& p = key_of(r);
    bool ok = r.ok;
    if (p.kind != Kind::Load) {
      const std::size_t k = pass_index[i];
      ok = ok && gate.reference_ok[k] != 0 && r.payload == gate.reference[k];
    }
    ++rep->attempted;
    if (!ok) ++rep->failed;
    if (p.kind == Kind::Warm) continue;
    const double ms = r.done_ms - r.due_ms;
    latency.push_back(ms);
    first_due_ms = std::min(first_due_ms, r.due_ms);
    last_done_ms = std::max(last_done_ms, r.done_ms);
    if (ok && ms <= w.latency_limit_ms) ++good;
    if (tracer != nullptr) {
      const char* name = p.kind == Kind::Hit    ? "net.hit"
                         : p.kind == Kind::Miss ? "net.miss"
                                                : "net.load";
      tracer->add({name, r.due_ms * 1e3, r.done_ms * 1e3, Tracer::kNoParent,
                   r.index, 1});
    }
  }
  if (tracer == nullptr) {
    add_solve_metrics(rep, setups, t);
    add_latency_metrics(rep, latency, good, (last_done_ms - first_due_ms) / 1e3);
    rep->metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  rep->count(gate);
  rep->note("offered_rate_rps", traffic.rate);
  rep->note("open_loop_s", traffic.duration_s);
  rep->note("input_digest", net::digest_hex(input_digest(inputs)));
}

std::string meta_json(const Args& args, const Workload& w, const Report& rep) {
  std::string out = "{";
  const auto field = [&](const std::string& k, const std::string& v) {
    if (out.size() > 1) out += ",";
    out += "\"" + k + "\":" + v;
  };
  const auto str = [](const std::string& v) {
    return "\"" + util::json_escape(v) + "\"";
  };
  field("workload", str(args.workload));
  field("seed", std::to_string(args.seed));
  field("seconds", std::to_string(static_cast<long>(args.seconds)));
  field("trace", args.trace ? "1" : "0");
  field("scale", str(args.tiny ? "tiny" : "full"));
  field("nproc", std::to_string(online_cpus()));
  field("N", std::to_string(args.lanes));
  field("connections", std::to_string(args.connections));
  field("cpu_model", str(cpu_model()));
  field("compiler", str(std::string("gcc-compatible ") + __VERSION__));
  field("build_type", str(HMIS_PERFBENCH_BUILD_TYPE));
  field("git_sha", str(args.git_sha));
  field("latency_limit_ms", std::to_string(w.latency_limit_ms));
  for (const auto& [k, v] : rep.meta) field(k, v);
  return out + "}";
}

int run(const Args& args) {
  const Workload w = make_workload(args);
  Report rep;
  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  if (args.workload == "serve_mix") {
    serve_mix(args, w, t, &rep);
  } else if (t != nullptr) {
    closed_loop_traced(args, w, t, &rep);
  } else {
    closed_loop(args, w, &rep);
  }
  if (t != nullptr) {
    rep.metrics.add("trace.spans", static_cast<double>(tracer.spans().size()),
                    "count");
  }
  const std::string meta = meta_json(args, w, rep);
  if (t != nullptr) {
    const std::string path = work_path(args, "trace.json");
    if (!tracer.write(path, meta)) {
      throw std::runtime_error("cannot write " + path);
    }
  }
  std::printf("{\"meta\":%s}\n", meta.c_str());
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
      rep.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), rep.metrics.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    return args.client ? run_client(args) : run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hmis_perfbench: %s\n", e.what());
    return 1;
  }
}
