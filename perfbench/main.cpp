// megabench — the benchmark driver. One workload per process:
//
//   megabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--threads <n>]
//   megabench --selftest
//
// Prints progress and reference lines, then the result line (JSON) last.
// Exits non-zero when an output check fails or the arguments are bad.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <random>
#include <string>
#include <unordered_map>

#include "bench.hpp"
#include "gen.hpp"

namespace perfbench {

// --- Samples -----------------------------------------------------------------

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

// --- tracing -----------------------------------------------------------------

namespace tracing {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};
const Clock::time_point g_epoch = Clock::now();

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

struct ThreadState {
  std::shared_ptr<ThreadBuffer> buffer;
  std::uint64_t current = 0;  ///< innermost open span
  std::uint64_t request = 0;
};
thread_local ThreadState t_state;

ThreadBuffer& buffer() {
  if (!t_state.buffer) {
    t_state.buffer = std::make_shared<ThreadBuffer>();
    t_state.buffer->thread = g_next_thread.fetch_add(1);
    t_state.buffer->spans.reserve(1 << 16);
    const std::lock_guard lock(g_buffers_mu);
    g_buffers.push_back(t_state.buffer);
  }
  return *t_state.buffer;
}

std::int64_t ns_since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

}  // namespace

void enable() { g_enabled.store(true); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void begin_request() noexcept {
  if (enabled()) t_state.request = g_next_id.fetch_add(1);
}

std::vector<Span> collect() {
  const std::lock_guard lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

Samples durations_us(const std::vector<Span>& spans, const std::string& name) {
  Samples out;
  for (const Span& s : spans) {
    if (name == s.name) out.add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

void write(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
        << ",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace tracing

ScopedSpan::ScopedSpan(const char* name) noexcept
    : name_(name), active_(tracing::enabled()) {
  if (!active_) return;
  id_ = tracing::g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = tracing::t_state.current;
  tracing::t_state.current = id_;
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const Clock::time_point end = Clock::now();
  tracing::ThreadBuffer& buf = tracing::buffer();
  buf.spans.push_back({name_, id_, parent_, tracing::t_state.request, buf.thread,
                       tracing::ns_since_epoch(start_),
                       tracing::ns_since_epoch(end)});
  tracing::t_state.current = parent_;
}

// --- host-speed calibration ----------------------------------------------------

namespace {

constexpr std::size_t kCalibrationTuples = 10000;
/// Median slice time on the reference host (README) in its faster stretches.
constexpr double kNominalSliceUs = 4000.0;

struct CalKey {
  std::uint64_t hi;
  std::uint64_t lo;
  bool operator==(const CalKey&) const = default;
};
struct CalKeyHash {
  std::size_t operator()(const CalKey& k) const noexcept {
    std::uint64_t h = k.hi * 0x9E3779B97F4A7C15ULL ^ k.lo;
    h ^= h >> 31;
    h *= 0xBF58476D1CE4E5B9ULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

volatile std::size_t g_calibration_sink = 0;

}  // namespace

Calibration::Calibration() {
  // Same input in every run: a seed of its own, not --seed.
  std::mt19937_64 rng(0xCA11B8A7E5EEDULL);
  const Zipf networks(kNetworks, kNetworkSkew);
  const Zipf hosts(kHosts, kHostSkew);
  const Zipf services(kServices, kServiceSkew);
  input_.reserve(kCalibrationTuples);
  for (std::size_t i = 0; i < kCalibrationTuples; ++i) {
    const auto net = static_cast<std::uint32_t>(networks(rng));
    const auto host = static_cast<std::uint32_t>(hosts(rng));
    const auto svc = static_cast<std::uint32_t>(services(rng));
    input_.push_back({(10u << 24) | (net << 16) | ((host * 2654435761u) & 0xFFFFu),
                      (192u << 24) | (168u << 16) | (svc * 40503u & 0xFFFFu),
                      static_cast<std::uint16_t>(32768 + rng() % 1024),
                      static_cast<double>(700 * (1 + rng() % 64))});
  }
}

double Calibration::slice() {
  const Clock::time_point start = Clock::now();
  // Every tuple adds its weight to itself and to each coarser ancestor:
  // source /32, /24, /16 with the port, then without it, /8, any source.
  std::unordered_map<CalKey, double, CalKeyHash> nodes;
  for (const Tuple& t : input_) {
    static constexpr int kLengths[] = {32, 24, 16, 16, 8, 0};
    for (std::size_t level = 0; level < std::size(kLengths); ++level) {
      const int len = kLengths[level];
      const std::uint32_t src = len == 0 ? 0u : t.src & (~0u << (32 - len));
      const std::uint64_t port = level < 3 ? t.port : 0u;
      nodes[{(static_cast<std::uint64_t>(src) << 32) | t.dst,
              (port << 8) | static_cast<std::uint64_t>(level)}] += t.bytes;
    }
  }
  g_calibration_sink = g_calibration_sink + nodes.size();
  const double us = us_between(start, Clock::now());
  times_us_.add(us);
  return us / kNominalSliceUs;
}

double Calibration::slowdown() const {
  return times_us_.size() == 0 ? 1.0 : times_us_.median() / kNominalSliceUs;
}

// --- process counters ----------------------------------------------------------

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// --- result line -----------------------------------------------------------------

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// The per-layer catalog, in the order BENCHMARK.json lists it.
constexpr CatalogEntry kLayerCatalog[] = {
    {"flowstream.ingest_batch_us", "us"},
    {"flowstream.exports", "count/round"},
    {"flowstream.export_wire_bytes", "bytes/round"},
    {"flowstream.flows_per_summary", "flows"},
    {"sim.run_until_us", "us"},
    {"store.seal_count", "count/round"},
    {"store.compress_count", "count/round"},
    {"store.merge_count", "count/round"},
    {"net.messages", "count/round"},
    {"net.payload_bytes", "bytes/round"},
    {"net.wan_bytes_per_kflow", "bytes/kflow"},
    {"flowdb.decode_hits", "count/round"},
    {"flowdb.decode_misses", "count/round"},
    {"flowdb.memory_bytes", "bytes"},
    {"flowdb.parse_us", "us"},
    {"flowdb.render_us", "us"},
    {"flowdb.add_us", "us"},
    {"flowdb.view_cache_hits", "count/query"},
    {"flowdb.view_cache_misses", "count/query"},
    {"flowdb.view_cache_evictions", "count/query"},
    {"flowdb.view_cache_hit_ratio", "ratio"},
    {"flowdb.view_cache_bytes", "bytes"},
    {"plan.run_us.repeat", "us"},
    {"plan.run_us.slide", "us"},
    {"plan.run_us.adhoc", "us"},
    {"plan.run_us.diff", "us"},
    {"plan.read_only_folds", "count/query"},
    {"plan.shared_folds", "count/query"},
    {"plan.fallbacks", "count/query"},
    {"flowtree.build_us", "us"},
    {"serve.rtt_us.repeat", "us"},
    {"serve.rtt_us.slide", "us"},
    {"serve.rtt_us.adhoc", "us"},
    {"serve.rtt_us.diff", "us"},
    {"serve.inproc_us.repeat", "us"},
    {"serve.inproc_us.slide", "us"},
    {"serve.inproc_us.adhoc", "us"},
    {"serve.inproc_us.diff", "us"},
    {"serve.bytes_in_per_query", "bytes/query"},
    {"serve.bytes_out_per_query", "bytes/query"},
    {"sched.queue_wait_us", "us"},
    {"sched.service_us", "us"},
    {"coordinator.remote_shard_queries", "count/query"},
    {"coordinator.fanout_pruned_shards", "count/query"},
    {"coordinator.response_decodes", "count"},
    {"coordinator.add_us", "us"},
    {"coordinator.scatter_bytes_per_query", "bytes/query"},
    {"process.cpu_s", "s"},
    {"query_p99_us", "us"},
    {"host.calibration_us", "us"},
};

}  // namespace

void LayerMetrics::set(const std::string& name, double value) {
  for (const CatalogEntry& entry : kLayerCatalog) {
    if (name == entry.name) {
      values_.emplace_back(name, value);
      return;
    }
  }
  throw std::logic_error("per-layer metric outside the catalog: " + name);
}

void LayerMetrics::emit(Report& report) const {
  for (const CatalogEntry& entry : kLayerCatalog) {
    double value = 0.0;
    for (const auto& [name, v] : values_) {
      if (name == entry.name) value = v;
    }
    report.add(entry.name, value, entry.unit);
  }
}

void CheckLog::fail(const std::string& what) {
  // The first few failures are enough to diagnose; the count says the rest.
  if (verbose_ && failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++failures_;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "megabench: %s\n"
               "usage: megabench --workload <pipeline_ingest|dashboard_mix|"
               "served_scatter> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>] [--threads <n>]\n"
               "       megabench --selftest\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.process_start = Clock::now();
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--threads") {
        options.threads = std::stoul(value);
        if (options.threads < 1 || options.threads > 64) {
          usage("--threads must be in [1, 64]");
        }
      } else if (flag == "--trace-out") {
        options.trace_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (selftest) return run_selftest() == 0 ? 0 : 1;
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  if (options.trace) tracing::enable();

  Report report;
  try {
    if (options.workload == "pipeline_ingest") {
      report = run_pipeline_ingest(options);
    } else if (options.workload == "dashboard_mix") {
      report = run_dashboard_mix(options);
    } else if (options.workload == "served_scatter") {
      report = run_served_scatter(options);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
    if (options.trace && !options.trace_path.empty()) {
      tracing::write(tracing::collect(), options.trace_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "megabench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
