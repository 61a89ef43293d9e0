// Shared plumbing of the benchmark driver: options, sample statistics, the
// in-memory span recorder behind `--trace 1`, process counters, and the
// result line the driver prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// pipeline_ingest only: Flowstream::set_parallelism pool size, for the
  /// README's reference curve. The workload proper runs with 1 (no pool).
  std::size_t threads = 1;
  /// Where the traced run writes its spans (one JSON object per line).
  std::string trace_path;
  /// main() entry: set-up time is measured from here.
  Clock::time_point process_start;
};

/// A bag of samples with exact order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  void append(const Samples& other);

 private:
  std::vector<double> values_;
};

/// One recorded interval. `parent` is the span open on the same thread when
/// this one began (0 = none); spans of one request share `trace`.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide span recorder. Disabled (the untraced runs) it costs one
/// branch per span site and reads no clock. Each thread appends to its own
/// buffer; buffers are merged and written out once the workload is done.
namespace tracing {
void enable();
[[nodiscard]] bool enabled() noexcept;
/// A fresh request id for the calling thread's subsequent spans.
void begin_request() noexcept;
/// Every span recorded so far, across threads (call after threads joined).
[[nodiscard]] std::vector<Span> collect();
/// Durations (µs) of every span with this name.
[[nodiscard]] Samples durations_us(const std::vector<Span>& spans,
                                   const std::string& name);
/// Write spans as JSON lines; throws on I/O failure.
void write(const std::vector<Span>& spans, const std::string& path);
}  // namespace tracing

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_{};
};

/// Host-speed calibration. The host's cores run this benchmark 20-50% slower
/// in some stretches of minutes than in others (other tenants' cache and
/// memory traffic; CPU time slows with wall time, so it is not lost time).
/// A calibration slice is a fixed piece of work in the benchmark's own code,
/// on an input that does not depend on --seed: an exact hierarchical
/// aggregation of 10 000 generated flow tuples into a hash map, the kind of
/// work the program does. Workloads run a slice at fixed points between
/// their timed calls; the median slice time over the nominal one says how
/// slow the host ran during this run, and the timing metrics are reported
/// at the nominal speed.
class Calibration {
 public:
  Calibration();
  /// Run and time one slice (not thread-safe: one caller at a time);
  /// returns its time over the nominal one.
  double slice();
  [[nodiscard]] std::size_t slices() const noexcept { return times_us_.size(); }
  /// Median slice time, µs.
  [[nodiscard]] double median_us() const { return times_us_.median(); }
  /// Seconds spent in slices.
  [[nodiscard]] double total_s() const { return times_us_.sum() / 1e6; }
  /// Median slice time over the nominal one; 1 when no slice ran.
  [[nodiscard]] double slowdown() const;

 private:
  struct Tuple {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint16_t port;
    double bytes;
  };
  std::vector<Tuple> input_;
  Samples times_us_;
};

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();
/// User + system CPU time of this process, seconds.
[[nodiscard]] double cpu_seconds();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: printed last on stdout as one JSON object.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string json() const;
};

/// Per-layer metrics of a traced run. emit() reports the whole catalog
/// (main.cpp, mirrored by BENCHMARK.json) in catalog order; a metric of a
/// layer the workload does not exercise reads 0.
class LayerMetrics {
 public:
  /// Throws std::logic_error for a name outside the catalog.
  void set(const std::string& name, double value);
  void emit(Report& report) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Records failed output checks; a workload with any failure exits non-zero.
class CheckLog {
 public:
  /// A quiet log only counts (the self-test expects failures).
  explicit CheckLog(bool verbose = true) : verbose_(verbose) {}
  void fail(const std::string& what);
  [[nodiscard]] bool ok() const noexcept { return failures_ == 0; }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
  /// Count one check; records `what` when `pass` is false.
  void expect(bool pass, const std::string& what) {
    ++checks_;
    if (!pass) fail(what);
  }

 private:
  bool verbose_;
  std::uint64_t failures_ = 0;
  std::uint64_t checks_ = 0;
};

Report run_pipeline_ingest(const Options& options);
Report run_dashboard_mix(const Options& options);
Report run_served_scatter(const Options& options);
/// Feeds each output check a corrupted answer; returns the failures.
int run_selftest();

}  // namespace perfbench
