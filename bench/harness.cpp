#include "bench/harness.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>

#include "src/core/contracts.h"
#include "src/core/table.h"
#include "src/workload/workload.h"

namespace bsplogp::bench {

namespace {

std::string real_to_json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage_and_exit(const std::string& name,
                                 const std::string& complaint) {
  std::cerr << "bench_" << name << ": " << complaint << "\n"
            << "usage: bench_" << name
            << " [--smoke] [--jobs N] [--repeat N] [--json <path>]"
               " [--trace <path>] [--list] [--deep]\n"
            << "  --smoke        tiny CI sweep (ctest -L bench_smoke)\n"
            << "  --jobs N       run sweep grid points on N threads"
               " (N in 1..4096); output is identical for every N\n"
            << "  --repeat N     run every measurement N times (N in"
               " 1..1000): sweep points re-verify\n"
               "                 equal results, wall-clock loops"
               " report the median;\n"
               "                 output is identical for every N\n"
            << "  --json <path>  also write the machine-readable document\n"
            << "  --trace <path> Chrome trace-event JSON of the traced runs\n"
            << "  --list         list workload families and series, run"
               " nothing\n"
            << "  --deep         nightly grids: a strict superset of the"
               " full grid\n";
  std::exit(2);
}

}  // namespace

// ---- Cell -------------------------------------------------------------------

std::string Cell::display() const {
  switch (kind_) {
    case Kind::Int: return core::fmt(int_);
    case Kind::Real: return core::fmt(real_, precision_);
    case Kind::Str: return str_;
  }
  return {};
}

std::string Cell::json() const {
  switch (kind_) {
    case Kind::Int: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%" PRId64, int_);
      return buf;
    }
    case Kind::Real: return real_to_json(real_);
    case Kind::Str: return "\"" + trace::json_escape(str_) + "\"";
  }
  return {};
}

// ---- Series -----------------------------------------------------------------

Series::Series(std::string id, std::vector<std::string> columns)
    : id_(std::move(id)), columns_(std::move(columns)) {}

void Series::row(std::vector<Cell> cells) {
  BSPLOGP_EXPECTS(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

void Series::print(std::ostream& os) const {
  core::Table table(columns_);
  for (const auto& r : rows_) {
    std::vector<std::string> cells;
    cells.reserve(r.size());
    for (const Cell& c : r) cells.push_back(c.display());
    table.add_row(std::move(cells));
  }
  table.print(os);
}

void Series::write_json(std::ostream& os) const {
  os << "{\"id\": \"" << trace::json_escape(id_) << "\", \"columns\": [";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << trace::json_escape(columns_[i]) << "\"";
  }
  os << "], \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r) os << ", ";
    os << "[";
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      if (c) os << ", ";
      os << rows_[r][c].json();
    }
    os << "]";
  }
  os << "]}";
}

// ---- Reporter ---------------------------------------------------------------

Reporter::Reporter(int argc, char** argv, std::string bench_name)
    : name_(std::move(bench_name)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_ = true;
    } else if (arg == "--list") {
      list_ = true;
    } else if (arg == "--json") {
      if (i + 1 >= argc) usage_and_exit(name_, "--json needs a path");
      json_path_ = argv[++i];
    } else if (arg == "--trace") {
      if (i + 1 >= argc) usage_and_exit(name_, "--trace needs a path");
      trace_path_ = argv[++i];
    } else if (arg == "--deep") {
      deep_ = true;
    } else if (arg == "--jobs") {
      if (i + 1 >= argc)
        usage_and_exit(name_, "--jobs needs a count (an integer 1..4096)");
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || v < 1 || v > 4096)
        usage_and_exit(name_, std::string("bad --jobs value '") + argv[i] +
                                  "' (want an integer 1..4096)");
      jobs_ = static_cast<int>(v);
    } else if (arg == "--repeat") {
      if (i + 1 >= argc)
        usage_and_exit(name_, "--repeat needs a count (an integer 1..1000)");
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || v < 1 || v > 1000)
        usage_and_exit(name_, std::string("bad --repeat value '") + argv[i] +
                                  "' (want an integer 1..1000)");
      repeat_ = static_cast<int>(v);
    } else {
      usage_and_exit(name_, "unknown flag '" + arg + "'");
    }
  }
  if (!trace_path_.empty())
    trace_ = std::make_unique<trace::ChromeTraceSink>();
}

core::ThreadPool* Reporter::pool() const {
  if (jobs_ <= 1) return nullptr;  // serial runs never spawn workers
  if (pool_ == nullptr) pool_ = std::make_unique<core::ThreadPool>(jobs_ - 1);
  return pool_.get();
}

void Reporter::use_workloads(std::vector<std::string> names) {
  for (const std::string& n : names)
    if (workload::find(n) == nullptr) {
      std::cerr << "bench_" << name_ << ": use_workloads(\"" << n
                << "\"): not in workload::registry()\n";
      std::exit(2);
    }
  workloads_ = std::move(names);
}

workload::Spec Reporter::checked_spec(const std::string& family,
                                      workload::Spec spec) {
  const workload::Entry* e = workload::find(family);
  if (e == nullptr) {
    std::cerr << "harness: checked_spec(\"" << family
              << "\"): not in workload::registry()\n";
    std::exit(2);
  }
  std::string error;
  if (!workload::validate(*e, spec, &error)) {
    std::cerr << "harness: " << error << "\n";
    std::exit(2);
  }
  return spec;
}

Series& Reporter::series(std::string id, std::vector<std::string> columns) {
  series_.emplace_back(std::move(id), std::move(columns));
  return series_.back();
}

void Reporter::metric(const std::string& key, double value) {
  metrics_.emplace_back(key, real_to_json(value));
}

void Reporter::metric(const std::string& key, std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, value);
  metrics_.emplace_back(key, buf);
}

void Reporter::diag(const std::string& line) {
  // One mutex, one pre-composed write: a chain of operator<< calls from a
  // pool worker can interleave with another thread's chain mid-line;
  // serializing whole lines here makes stderr tear-free under --jobs > 1.
  static std::mutex mu;
  const std::lock_guard<std::mutex> lock(mu);
  std::cerr << line << '\n';
}

void Reporter::write_json(std::ostream& os) const {
  os << "{\"bench\": \"" << trace::json_escape(name_) << "\", \"smoke\": "
     << (smoke_ ? "true" : "false") << ", \"jobs\": " << jobs_
     << ", \"repeat\": " << repeat_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << trace::json_escape(metrics_[i].first)
       << "\": " << metrics_[i].second;
  }
  os << "}, \"series\": [";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (i) os << ", ";
    series_[i].write_json(os);
  }
  os << "]}\n";
}

int Reporter::finish() {
  if (list_) {
    std::cout << "bench_" << name_ << "\nworkloads:\n";
    for (const std::string& n : workloads_) {
      const workload::Entry* e = workload::find(n);
      std::cout << "  " << n << "  -- " << e->description << "\n";
      const std::string domains = workload::describe_domains(*e);
      if (!domains.empty())
        std::cout << "      domain: " << domains << "\n";
    }
    std::cout << "series:\n";
    for (const Series& s : series_) std::cout << "  " << s.id() << "\n";
    return 0;
  }
  if (trace_ != nullptr) {
    if (!trace_->write_file(trace_path_)) {
      diag("harness: cannot write trace to " + trace_path_);
      return 1;
    }
    diag("trace: " + std::to_string(trace_->event_rows()) + " events over " +
         std::to_string(trace_->runs()) + " run(s) -> " + trace_path_ +
         " (open in ui.perfetto.dev)");
  }
  if (json_path_.empty()) return 0;
  std::ofstream os(json_path_);
  if (!os) {
    std::cerr << "harness: cannot open " << json_path_ << " for writing\n";
    return 1;
  }
  write_json(os);
  return os.good() ? 0 : 1;
}

}  // namespace bsplogp::bench
