// The suite benchmark: replays one workload (a share of the experiment
// suite's bench grids, split by executor) and reports end-to-end metrics
// (untraced run) or the per-layer ledger (traced run).
//
//   perfbench --workload bsp-on-logp|logp-on-bsp|netsim --seed N
//             --seconds S --trace 0|1 --digests FILE [--commit ID]
//   perfbench --workload W --seed 0 --digests /dev/null --print-digests
//
// Untraced (--trace 0): builds the inputs several times (setup_s is the
// median), then alternates 1-thread passes and nproc-thread passes over the
// grid for S seconds and reports their medians (sweep_s, sweep_par_s), plus
// peak RSS. sweep_par_s is printed but left out of the JSON result.
// Traced (--trace 1): the same passes, timed per grid point, alternating
// with passes that time every layer call from outside (and BspOnLogp's
// protocol phases through a host-clock TraceSink); prints the ledger.
//
// Every pass is checked: each point's executor verdicts and program
// outputs (serial oracles, closed forms), and the digest of its
// model-visible results against the first pass (or, at the committed seed
// 0, against the pinned digests in FILE). A self-test then perturbs one
// output, one result and one reference digest and requires each to be
// caught. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --print-digests runs one pass and prints the digest file for the seed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "layers.h"
#include "src/core/parallel.h"
#include "src/trace/event.h"

namespace perfbench {

namespace {

using namespace bsplogp;

/// The seed whose per-point digests are pinned in perfbench/digests/. At
/// seed 0 every point's inputs are the source bench's own.
constexpr std::uint64_t kCommittedSeed = 0;
/// Setups per run; setup_s is their median.
constexpr int kSetupReps = 21;
/// Each kind of timed pass runs at least this often, whatever --seconds.
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string digests;
  std::string commit = "unknown";
  bool print_digests = false;
};

[[noreturn]] void usage(const std::string& complaint) {
  std::cerr << "perfbench: " << complaint
            << "\nusage: perfbench --workload bsp-on-logp|logp-on-bsp|netsim "
               "--seed N --seconds S --trace 0|1 --digests FILE "
               "[--commit ID] [--print-digests]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  std::uint64_t x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size() || v.front() == '-')
    usage("bad " + flag + " '" + v + "' (want a whole number)");
  return x;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") {
      a.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(flag, v));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace '" + v + "' (want 0 or 1)");
      a.trace = v == "1" ? 1 : 0;
      have_trace = true;
    } else if (flag == "--digests") {
      a.digests = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload != "bsp-on-logp" && a.workload != "logp-on-bsp" &&
      a.workload != "netsim")
    usage("bad --workload '" + a.workload + "'");
  if (!have_seed || a.digests.empty() ||
      (!a.print_digests && (!have_seconds || !have_trace)))
    usage("missing a required flag");
  return a;
}

Workload build(const std::string& name, std::uint64_t seed, Ledger* setup) {
  if (name == "bsp-on-logp") return build_bsp_on_logp(seed, setup);
  if (name == "logp-on-bsp") return build_logp_on_bsp(seed, setup);
  return build_netsim(seed, setup);
}

// ---- checks ----------------------------------------------------------------

/// FNV-1a over the model-visible result fields.
std::uint64_t digest(const Outcome& o) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int64_t v : o.fields) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Empty when the point passed every check the repo applies to it.
std::string verdict(const Outcome& o) {
  if (!o.failure.empty()) return o.failure;
  if (o.want != nullptr && o.got != *o.want)
    return "program outputs differ from the serial oracle / closed form";
  return {};
}

/// Reference digest per point; nullopt where none is pinned.
using Reference = std::vector<std::optional<std::uint64_t>>;

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first;  // first failure, with its point

  [[nodiscard]] double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

void check(const std::vector<Outcome>& outcomes, const Reference& ref,
           const std::vector<std::string>& labels, Tally& tally) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    tally.attempted += 1;
    std::string why = verdict(outcomes[i]);
    if (why.empty() && (i >= ref.size() || !ref[i].has_value()))
      why = "no pinned digest for this point";
    else if (why.empty() && digest(outcomes[i]) != *ref[i])
      why = "model-visible results differ from the reference digest";
    if (why.empty()) continue;
    tally.failed += 1;
    if (tally.first.empty()) tally.first = labels[i] + ": " + why;
  }
}

/// Pinned digests: one "<16 hex digits> <point label>" line per point, in
/// grid order. A line whose label is not the point's pins nothing.
Reference load_pinned(const std::string& path,
                      const std::vector<std::string>& labels) {
  Reference ref(labels.size());
  std::ifstream in(path);
  std::string line;
  for (std::size_t i = 0; i < labels.size() && std::getline(in, line); ++i) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || line.substr(space + 1) != labels[i])
      continue;
    try {
      ref[i] = std::stoull(line.substr(0, space), nullptr, 16);
    } catch (const std::exception&) {
    }
  }
  return ref;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Perturbs one program output, one model-visible result and one reference
/// digest of a clean pass; each must raise fail_frac above the pass's own.
bool self_test(const std::vector<Outcome>& outcomes, const Reference& ref,
               const std::vector<std::string>& labels, std::ostream& os) {
  Tally base;
  check(outcomes, ref, labels, base);
  const auto caught = [&](const std::vector<Outcome>& o, const Reference& r,
                          const char* what) {
    Tally t;
    check(o, r, labels, t);
    os << "self-test  " << what << " -> fail_frac " << t.fail_frac() << " ("
       << t.failed << "/" << t.attempted << ")\n";
    return t.failed > base.failed;
  };
  bool ok = true;
  const auto with_output =
      std::find_if(outcomes.begin(), outcomes.end(),
                   [](const Outcome& o) { return !o.got.empty(); });
  if (with_output != outcomes.end()) {
    std::vector<Outcome> bad = outcomes;
    bad[static_cast<std::size_t>(with_output - outcomes.begin())].got[0] += 1;
    ok &= caught(bad, ref, "perturbed output");
  }
  std::vector<Outcome> bad = outcomes;
  bad.back().fields.back() += 1;
  ok &= caught(bad, ref, "perturbed result");
  Reference bad_ref = ref;
  bad_ref.front() = ~bad_ref.front().value_or(0);
  ok &= caught(outcomes, bad_ref, "perturbed digest");
  return ok;
}

// ---- passes ----------------------------------------------------------------

struct Pass {
  double wall = 0;
  std::vector<Outcome> outcomes;  // by global point index
  std::vector<double> point_s;    // per point, when timed per point
};

/// One pass over every section in order; with a pool, each section is one
/// batch on it (as a bench's sweep is). A ledger is only for serial passes.
Pass run_pass(const Workload& w, std::size_t npoints, core::ThreadPool* pool,
              bool time_points, Ledger* lg) {
  Pass pass;
  pass.outcomes.resize(npoints);
  if (time_points) pass.point_s.resize(npoints);
  const auto t0 = Clock::now();
  std::size_t base = 0;
  for (const Section& sec : w) {
    const auto body = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const auto tp = time_points ? Clock::now() : Clock::time_point{};
        pass.outcomes[base + i] = sec[i].run(lg);
        if (time_points) pass.point_s[base + i] = seconds_since(tp);
      }
    };
    if (pool != nullptr)
      pool->for_ranges(sec.size(), body);
    else
      body(0, sec.size());
    base += sec.size();
  }
  pass.wall = seconds_since(t0);
  return pass;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Median and the quartile spread (IQR / median), for the human report.
std::string summary(const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const double med = median(s);
  const double q1 = s[s.size() / 4];
  const double q3 = s[(3 * s.size()) / 4];
  std::ostringstream os;
  os << "median of " << v.size() << ", IQR/median "
     << std::setprecision(3) << (med > 0 ? (q3 - q1) / med : 0);
  return os.str();
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
  /// False for a metric that is printed but left out of the JSON result.
  bool in_result = true;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double v, int digits) {
  std::ostringstream os;
  os << std::setprecision(digits) << v;
  return os.str();
}

/// Full precision for the JSON result, six digits for the human report.
std::string json_number(double v) { return number(v, 17); }

void print_row(const Metric& m, const char* moves = nullptr,
               const char* on = nullptr) {
  std::cout << std::left << std::setw(34) << m.name << std::setw(13)
            << number(m.value, 6) << std::setw(7) << m.unit;
  if (moves != nullptr)
    std::cout << std::setw(26) << moves << std::setw(22) << on;
  std::cout << m.note << "\n";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s.erase(std::find(s.begin(), s.end(), '\0'), s.end());
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    if (!s.empty()) return s;
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// This process's resident high-water mark. getrusage's ru_maxrss is not
/// used: across exec it keeps the launcher's peak (run.py's).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    std::getline(status, key);
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---- the two kinds of run --------------------------------------------------

struct Run {
  Args args;
  int threads = 1;
  std::vector<std::string> labels;
  Reference ref;
  Tally tally;
  double peak_rss_mb = 0;  // after setup and the reference pass
};

/// The measuring loop's clock: another round starts while one more round,
/// as long as the last, still ends within --seconds (and until every kind
/// of pass ran kMinPasses times).
class Budget {
 public:
  explicit Budget(double seconds)
      : start_(Clock::now()), last_(start_), seconds_(seconds) {}

  [[nodiscard]] bool another(std::size_t rounds) {
    const auto now = Clock::now();
    const double round = std::chrono::duration<double>(now - last_).count();
    const double used = std::chrono::duration<double>(now - start_).count();
    last_ = now;
    return rounds < kMinPasses || used + round <= seconds_;
  }

 private:
  Clock::time_point start_;
  Clock::time_point last_;
  double seconds_;
};

double rate(std::int64_t count, double seconds) {
  return seconds > 0 ? static_cast<double>(count) / seconds : 0;
}

/// Keeps the last of kSetupReps setups (each: inputs + pool spawn).
struct Setup {
  std::optional<Workload> w;
  std::unique_ptr<core::ThreadPool> pool;
  std::vector<double> seconds;
  std::vector<Ledger> ledgers;
};

Setup set_up(const Run& run, bool ledger) {
  Setup s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.pool.reset();
    s.w.reset();
    Ledger lg;
    const auto t0 = Clock::now();
    s.w = build(run.args.workload, run.args.seed, ledger ? &lg : nullptr);
    s.pool = std::make_unique<core::ThreadPool>(run.threads - 1);
    s.seconds.push_back(seconds_since(t0));
    s.ledgers.push_back(lg);
  }
  return s;
}

std::vector<Metric> untraced(Run& run, Setup& s, std::size_t n) {
  std::vector<double> serial;
  std::vector<double> parallel;
  Budget budget(run.args.seconds);
  while (budget.another(serial.size())) {
    const Pass a = run_pass(*s.w, n, nullptr, false, nullptr);
    check(a.outcomes, run.ref, run.labels, run.tally);
    serial.push_back(a.wall);
    const Pass b = run_pass(*s.w, n, s.pool.get(), false, nullptr);
    check(b.outcomes, run.ref, run.labels, run.tally);
    parallel.push_back(b.wall);
  }
  return {
      {"setup_s", median(s.seconds), "s", summary(s.seconds) + " setups"},
      {"sweep_s", median(serial), "s", summary(serial) + " 1-thread passes"},
      {"peak_rss_mb", run.peak_rss_mb, "MB",
       "peak resident set of the setups and one 1-thread pass"},
      // Printed, not gated: its medians follow the host's spare cores,
      // which on a shared VM move by more than any usable bound.
      {"sweep_par_s", median(parallel), "s",
       summary(parallel) + " " + std::to_string(run.threads) +
           "-thread passes (not in the result)",
       false},
  };
}

/// Each traced-run metric with the end-to-end metric it should move and the
/// workloads it should move on.
struct LayerMetric {
  Metric m;
  const char* moves;
  const char* on;
};

std::vector<LayerMetric> traced(Run& run, Setup& s, std::size_t n) {
  const double threads = run.threads;
  std::vector<double> serial_wall, overhead, par_wall, idle, inflation;
  std::vector<double> traced_wall;
  std::vector<std::vector<double>> point_s(n);
  std::vector<Ledger> ledgers;
  Budget budget(run.args.seconds);
  while (budget.another(traced_wall.size())) {
    const Pass a = run_pass(*s.w, n, nullptr, true, nullptr);
    check(a.outcomes, run.ref, run.labels, run.tally);
    serial_wall.push_back(a.wall);
    const double serial_points =
        std::accumulate(a.point_s.begin(), a.point_s.end(), 0.0);
    overhead.push_back(a.wall - serial_points);
    for (std::size_t i = 0; i < n; ++i) point_s[i].push_back(a.point_s[i]);

    const Pass b = run_pass(*s.w, n, s.pool.get(), true, nullptr);
    check(b.outcomes, run.ref, run.labels, run.tally);
    par_wall.push_back(b.wall);
    const double par_points =
        std::accumulate(b.point_s.begin(), b.point_s.end(), 0.0);
    idle.push_back(1 - par_points / (threads * b.wall));
    inflation.push_back(par_points / serial_points);

    Ledger lg;
    PhaseClock clock(lg);
    lg.phase_sink = &clock;
    const Pass c = run_pass(*s.w, n, nullptr, false, &lg);
    lg.phase_sink = nullptr;
    check(c.outcomes, run.ref, run.labels, run.tally);
    traced_wall.push_back(c.wall);
    ledgers.push_back(lg);
  }

  // Pool bound, per section as the sweeps batch them: a batch cannot end
  // before its longest point, nor before its work spread over all threads.
  double max_point = 0;
  double bound = 0;
  std::size_t base = 0;
  for (const Section& sec : *s.w) {
    double longest = 0;
    double total = 0;
    for (std::size_t i = base; i < base + sec.size(); ++i) {
      const double t = median(point_s[i]);
      longest = std::max(longest, t);
      total += t;
    }
    max_point = std::max(max_point, longest);
    bound += std::max(longest, total / threads);
    base += sec.size();
  }

  // The layer ledger of the traced pass with the median wall time.
  std::vector<std::size_t> order(traced_wall.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return traced_wall[x] < traced_wall[y];
  });
  const std::size_t mid = order[(order.size() - 1) / 2];
  const Ledger& lg = ledgers[mid];
  const auto sec_of = [&](Layer l) {
    return lg.seconds[static_cast<std::size_t>(l)];
  };
  double claimed = 0;
  for (int l = 0; l < kNumPassLayers; ++l)
    claimed += lg.seconds[static_cast<std::size_t>(l)];
  double phases = 0;
  for (const double p : lg.phase_seconds) phases += p;
  const auto phase = [&](trace::SimPhase ph) {
    return lg.phase_seconds[static_cast<std::size_t>(ph)];
  };
  const auto setup_median = [&](Layer l) {
    std::vector<double> v;
    for (const Ledger& x : s.ledgers)
      v.push_back(x.seconds[static_cast<std::size_t>(l)]);
    return median(v);
  };

  const char* all = "all";
  const char* bol = "bsp-on-logp";
  const char* lob = "logp-on-bsp";
  return {
      {{"core.pool.max_point_s", max_point, "s", "longest grid point"},
       "sweep_par_s", bol},
      {{"core.pool.bound_s", bound, "s",
        "sum over sections of max(longest point, point seconds / threads)"},
       "sweep_par_s", all},
      {{"core.pool.par_s", median(par_wall), "s",
        "parallel pass wall, to read against bound_s"},
       "sweep_par_s", all},
      {{"core.pool.idle_frac", median(idle), "frac",
        "idle share of thread-time in the parallel pass"},
       "sweep_par_s", "bsp-on-logp, netsim"},
      {{"core.pool.point_inflation", median(inflation), "x",
        "point seconds in the parallel pass over those in the serial one"},
       "sweep_par_s", all},
      {{"core.pool.overhead_s", median(overhead), "s",
        "serial pass wall minus point seconds"},
       "sweep_s", lob},
      {{"routing.gen_s", setup_median(kRoutingGen), "s",
        "relation generators at setup"},
       "setup_s", "bsp-on-logp, netsim"},
      {{"workload.gen_s", sec_of(kWorkloadGen), "s", "program factories"},
       "sweep_s", lob},
      {{"logp.run_s", sec_of(kLogpRun), "s", "direct logp::Machine runs"},
       "sweep_s", lob},
      {{"logp.events_per_s", rate(lg.logp_events, sec_of(kLogpRun)), "1/s",
        ""},
       "sweep_s", lob},
      {{"logp.msgs_per_s", rate(lg.logp_messages, sec_of(kLogpRun)), "1/s",
        ""},
       "sweep_s", lob},
      {{"logp.stall_events", static_cast<double>(lg.logp_stalls), "count",
        "per pass"},
       "sweep_s", lob},
      {{"bsp.run_s", sec_of(kBspRun), "s", "direct bsp::Machine runs"},
       "sweep_s", lob},
      {{"bsp.msgs_per_s", rate(lg.bsp_messages, sec_of(kBspRun)), "1/s", ""},
       "sweep_s", lob},
      {{"bsp.supersteps_per_s", rate(lg.bsp_supersteps, sec_of(kBspRun)),
        "1/s", ""},
       "sweep_s", lob},
      {{"xsim.logp_on_bsp.run_s", sec_of(kLogpOnBspRun), "s", ""},
       "sweep_s", lob},
      {{"xsim.logp_on_bsp.cycles_per_s",
        rate(lg.logp_on_bsp_cycles, sec_of(kLogpOnBspRun)), "1/s",
        "host supersteps (one per simulated cycle)"},
       "sweep_s", lob},
      {{"xsim.bsp_on_logp.run_s", sec_of(kBspOnLogpRun), "s", ""},
       "sweep_s, sweep_par_s", bol},
      {{"xsim.bsp_on_logp.events_per_s",
        rate(lg.bsp_on_logp_events, sec_of(kBspOnLogpRun)), "1/s",
        "hosted LogP events"},
       "sweep_s, sweep_par_s", bol},
      {{"xsim.bsp_on_logp.phase.local_s", phase(trace::SimPhase::Local), "s",
        ""},
       "sweep_s", bol},
      {{"xsim.bsp_on_logp.phase.cb_s", phase(trace::SimPhase::Cb), "s", ""},
       "sweep_s", bol},
      {{"xsim.bsp_on_logp.phase.sort_s", phase(trace::SimPhase::Sort), "s",
        ""},
       "sweep_s", bol},
      {{"xsim.bsp_on_logp.phase.route_s", phase(trace::SimPhase::Route), "s",
        ""},
       "sweep_s", bol},
      {{"xsim.bsp_on_logp.phase.drain_s", phase(trace::SimPhase::Drain), "s",
        ""},
       "sweep_s", bol},
      {{"xsim.bsp_on_logp.unattributed_s", sec_of(kBspOnLogpRun) - phases,
        "s", "run_s minus the five phase spans"},
       "(validity of the ledger)", bol},
      {{"xsim.bsp_on_logp.sort_keys_per_s",
        rate(lg.bsp_on_logp_sort_keys, phase(trace::SimPhase::Sort)), "1/s",
        "padded records per sort-phase second"},
       "sweep_s", bol},
      {{"xsim.route_randomized.run_s", sec_of(kRouteRandomizedRun), "s", ""},
       "sweep_s", bol},
      {{"net.build_s", setup_median(kNetBuild), "s",
        "make_topology + PacketSim (+ diameter) at setup"},
       "setup_s", "netsim"},
      {{"net.route_s", sec_of(kNetRoute), "s", ""},
       "sweep_s, sweep_par_s", "netsim"},
      {{"net.hops_per_s", rate(lg.net_hops, sec_of(kNetRoute)), "1/s", ""},
       "sweep_s, sweep_par_s", "netsim"},
      {{"trace.overhead_frac", median(traced_wall) / median(serial_wall) - 1,
        "frac", "traced vs point-timed serial pass"},
       "(validity of the ledger)", all},
      {{"unattributed_s", traced_wall[mid] - claimed, "s",
        "traced pass wall minus every layer's run seconds"},
       "(validity of the ledger)", all},
  };
}

int run_main(int argc, char** argv) {
  Run run;
  run.args = parse(argc, argv);
  run.threads = core::hardware_jobs();

  Setup s = set_up(run, run.args.trace == 1 && !run.args.print_digests);
  std::size_t n = 0;
  for (const Section& sec : *s.w)
    for (const Point& pt : sec) {
      run.labels.push_back(pt.label);
      n += 1;
    }

  // Reference pass (also the warm-up): its digests are the reference, or
  // the pinned ones at the committed seed.
  const Pass first = run_pass(*s.w, n, nullptr, false, nullptr);
  if (run.args.print_digests) {
    for (std::size_t i = 0; i < n; ++i)
      std::cout << hex(digest(first.outcomes[i])) << ' ' << run.labels[i]
                << '\n';
    Tally t;
    Reference self(n);
    for (std::size_t i = 0; i < n; ++i) self[i] = digest(first.outcomes[i]);
    check(first.outcomes, self, run.labels, t);
    if (t.failed != 0) std::cerr << "perfbench: " << t.first << '\n';
    return t.failed == 0 ? 0 : 1;
  }
  const bool pinned = run.args.seed == kCommittedSeed;
  if (pinned) {
    run.ref = load_pinned(run.args.digests, run.labels);
  } else {
    for (const Outcome& o : first.outcomes) run.ref.push_back(digest(o));
  }
  check(first.outcomes, run.ref, run.labels, run.tally);
  // Before any pool batch: with several threads allocating, the high-water
  // mark would depend on which points happened to overlap.
  run.peak_rss_mb = peak_rss_mb();
  const Pass warm = run_pass(*s.w, n, s.pool.get(), false, nullptr);
  check(warm.outcomes, run.ref, run.labels, run.tally);

  std::cout << "perfbench workload=" << run.args.workload
            << " seed=" << run.args.seed << " seconds=" << run.args.seconds
            << " trace=" << run.args.trace << "\n";
  std::cout << "env {\"nproc\": " << run.threads
            << ", \"cpu\": " << json_string(cpu_model())
            << ", \"compiler\": " << json_string(compiler())
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"commit\": " << json_string(run.args.commit)
            << ", \"seed\": " << run.args.seed
            << ", \"workload\": " << json_string(run.args.workload)
            << ", \"sections\": " << s.w->size()
            << ", \"points\": " << n << "}\n";

  std::vector<Metric> metrics;
  if (run.args.trace == 0) {
    metrics = untraced(run, s, n);
    for (const Metric& m : metrics) print_row(m);
  } else {
    std::cout << std::left << std::setw(34) << "metric" << std::setw(13)
              << "value" << std::setw(7) << "unit" << std::setw(26)
              << "should move" << std::setw(22) << "on" << "note\n";
    for (const LayerMetric& lm : traced(run, s, n)) {
      print_row(lm.m, lm.moves, lm.on);
      metrics.push_back(lm.m);
    }
  }

  std::cout << "fail_frac                         " << run.tally.fail_frac()
            << " (" << run.tally.failed << "/" << run.tally.attempted
            << " point runs; digests "
            << (pinned ? "pinned at the committed seed"
                       : "checked against the first pass")
            << ")\n";
  if (!run.tally.first.empty())
    std::cout << "first failure                     " << run.tally.first
              << "\n";
  const bool teeth = self_test(first.outcomes, run.ref, run.labels, std::cout);
  const bool correct = run.tally.failed == 0 && teeth;

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.tally.attempted
            << ", \"failed\": " << run.tally.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    std::cout << sep << json_string(m.name)
              << ": {\"value\": " << json_number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
