// Workload `pipeline_ingest`: the Fig. 5 Flowstream pipeline, 2 regions x 3
// routers, single-threaded. Routers ingest a pre-generated Zipf flow trace
// in batches; every epoch the simulator runs the export ticks (seal, encode,
// WAN, region absorb, FlowDB index).
//
// The timed phase runs whole rounds: each round is a fresh pipeline that
// ingests the same kEpochs-epoch trace, so the pipeline's memory does not
// grow with the number of rounds a faster program completes. Building and
// tearing down a round's pipeline is outside the timed segments.
//
// After its ingest, each round's pipeline answers the verification queries
// (checked against the benchmark's own sums); those statements, issued
// kQueryPasses times, are also the workload's query sample — operators
// looking at freshly ingested data. Spreading them over every round samples
// the whole run, not its last moments.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "flowstream/flowstream.hpp"
#include "gen.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace megads;

constexpr std::size_t kRegions = 2;
constexpr std::size_t kRoutersPerRegion = 3;
constexpr std::size_t kRouters = kRegions * kRoutersPerRegion;
constexpr std::size_t kEpochs = 8;            ///< epochs per round
constexpr std::size_t kBatchesPerEpoch = 10;  ///< ingest_batch calls per router epoch
constexpr std::size_t kFlowsPerBatch = 1000;
constexpr SimDuration kEpoch = 10 * kSecond;
constexpr SimDuration kBatchSpan = kEpoch / kBatchesPerEpoch;
constexpr std::size_t kPrefixesPerRouter = 8;  ///< top /16s checked (and their /8s)
/// First-pass misses (7 of 103 statements fold summaries; the rest hit the
/// view cache) are 2.3% of samples at 3 passes, so p99 falls inside them.
constexpr int kQueryPasses = 3;

flowstream::FlowstreamConfig pipeline_config() {
  flowstream::FlowstreamConfig config;
  config.regions = kRegions;
  config.routers_per_region = kRoutersPerRegion;
  config.epoch = kEpoch;
  return config;  // router/region budgets, links and storage: defaults
}

struct Trace {
  /// [router][epoch * kBatchesPerEpoch + batch]
  std::vector<std::vector<std::vector<flow::FlowRecord>>> batches;
  std::vector<double> router_bytes;  ///< exact total per router
  /// Per router: checked source prefixes and their exact byte sums.
  std::vector<std::vector<std::pair<flow::Prefix, double>>> prefix_bytes;
  std::uint64_t flows = 0;
};

Trace make_trace(std::uint64_t seed) {
  Trace trace;
  trace.batches.resize(kRouters);
  trace.router_bytes.assign(kRouters, 0.0);
  trace.prefix_bytes.resize(kRouters);
  for (std::size_t r = 0; r < kRouters; ++r) {
    FlowSource source(seed, static_cast<std::uint32_t>(r));
    auto& prefixes = trace.prefix_bytes[r];
    for (std::size_t rank = 0; rank < kPrefixesPerRouter; ++rank) {
      const flow::Prefix net = source.network(rank);
      prefixes.emplace_back(net, 0.0);
      prefixes.emplace_back(net.shortened(8), 0.0);
    }
    for (std::size_t b = 0; b < kEpochs * kBatchesPerEpoch; ++b) {
      std::vector<flow::FlowRecord> batch;
      batch.reserve(kFlowsPerBatch);
      for (std::size_t i = 0; i < kFlowsPerBatch; ++i) {
        // Records spread evenly over the batch's slice of the epoch.
        const SimTime ts = static_cast<SimTime>(b) * kBatchSpan +
                           static_cast<SimTime>(i) * kBatchSpan /
                               static_cast<SimTime>(kFlowsPerBatch);
        flow::FlowRecord record = source.next(ts);
        const auto bytes = static_cast<double>(record.bytes);
        trace.router_bytes[r] += bytes;
        for (auto& [prefix, sum] : prefixes) {
          if (prefix.contains(record.key.src())) sum += bytes;
        }
        batch.push_back(record);
      }
      trace.flows += batch.size();
      trace.batches[r].push_back(std::move(batch));
    }
  }
  return trace;
}

/// One round's pipeline. The simulator must outlive the Flowstream.
struct Pipeline {
  /// `pool` (null: single-threaded) and `registry` must outlive the pipeline.
  Pipeline(metrics::MetricsRegistry& registry, ThreadPool* pool)
      : system(simulator, pipeline_config()) {
    system.attach_metrics(registry);
    if (pool != nullptr) system.set_parallelism(*pool);
    system.start();
  }
  sim::Simulator simulator;
  flowstream::Flowstream system;
};

std::string location_of(std::size_t router) {
  return "router-" + std::to_string(router / kRoutersPerRegion) + "." +
         std::to_string(router % kRoutersPerRegion);
}

/// Seconds of one round inside the pipeline's calls, as measured and at
/// the calibration's nominal host speed, and the host's slowdown over it.
struct RoundTime {
  double measured_s = 0.0;
  double nominal_s = 0.0;
  double slowdown = 1.0;
};

/// Ingest one round. A calibration slice runs after each epoch, outside the
/// timed segments, and scales that epoch's time to the nominal host speed.
RoundTime ingest_round(Pipeline& p, const Trace& trace, Calibration& calibration) {
  RoundTime out;
  Samples slowdowns;
  for (std::size_t e = 0; e <= kEpochs; ++e) {
    const Clock::time_point start = Clock::now();
    for (std::size_t b = 0; e < kEpochs && b < kBatchesPerEpoch; ++b) {
      for (std::size_t r = 0; r < kRouters; ++r) {
        const ScopedSpan span("flowstream.ingest_batch");
        p.system.ingest_batch(r / kRoutersPerRegion, r % kRoutersPerRegion,
                              trace.batches[r][e * kBatchesPerEpoch + b]);
      }
    }
    {
      // After the last epoch, one more delivers the last exports (WAN
      // latency) everywhere.
      const ScopedSpan span("sim.run_until");
      p.simulator.run_until(static_cast<SimTime>(e + 1) * kEpoch);
    }
    const double seconds = s_between(start, Clock::now());
    const double slowdown = calibration.slice();
    out.measured_s += seconds;
    out.nominal_s += seconds / slowdown;
    slowdowns.add(slowdown);
  }
  out.slowdown = slowdowns.median();
  return out;
}

struct Statement {
  std::string text;
  flow::FlowKey key;  ///< restriction (root = total)
  std::size_t router = kRouters;  ///< kRouters = every location
  double exact = 0.0;  ///< the benchmark's own sum for the selection
};

std::vector<Statement> verification_statements(const Trace& trace) {
  const std::string window =
      "FROM 0s.." + std::to_string((kEpochs + 1) * kEpoch / kSecond) + "s";
  std::vector<Statement> out;
  double all = 0.0;
  for (const double bytes : trace.router_bytes) all += bytes;
  out.push_back({"SELECT query " + window, flow::FlowKey(), kRouters, all});
  for (std::size_t r = 0; r < kRouters; ++r) {
    const std::string where = " WHERE location = '" + location_of(r) + "'";
    out.push_back({"SELECT query " + window + where, flow::FlowKey(), r,
                   trace.router_bytes[r]});
    for (const auto& [prefix, sum] : trace.prefix_bytes[r]) {
      flow::FlowKey key;
      key.with_src(prefix);
      out.push_back({"SELECT query " + window + " WHERE src = " +
                         prefix.to_string() + " AND location = '" +
                         location_of(r) + "'",
                     key, r, sum});
    }
  }
  return out;
}

/// Statement latencies, as measured and at the nominal host speed.
struct QueryTimes {
  Samples measured_us;
  Samples nominal_us;
};

/// Check one round's pipeline against the benchmark's sums, and time the
/// verification statements (kQueryPasses passes) into `times`, scaling them
/// to the nominal host speed by the round's `slowdown`. Returns the wall
/// seconds of the passes (query and render, one after another).
double verify_round(flowstream::Flowstream& system, const Trace& trace,
                    const std::vector<Statement>& statements, double slowdown,
                    QueryTimes& times, CheckLog& log) {
  log.expect(system.summaries_indexed() == kRouters * kEpochs,
             "summaries indexed " + std::to_string(system.summaries_indexed()) +
                 " != routers x epochs " + std::to_string(kRouters * kEpochs));
  for (std::size_t g = 0; g < kRegions; ++g) {
    double routers = 0.0;
    for (std::size_t j = 0; j < kRoutersPerRegion; ++j) {
      routers += trace.router_bytes[g * kRoutersPerRegion + j];
    }
    const auto snapshot = system.region_store(g).snapshot(system.region_slot(g));
    const auto* tree = dynamic_cast<const flowtree::Flowtree*>(snapshot.get());
    const double region = tree != nullptr ? tree->total_weight() : -1.0;
    log.expect(std::fabs(region - routers) <= 1e-9 * routers,
               "region " + std::to_string(g) + " total " +
                   std::to_string(region) + " != its routers' " +
                   std::to_string(routers));
  }
  std::vector<std::string> first(statements.size());
  const Clock::time_point passes_start = Clock::now();
  for (int pass = 0; pass < kQueryPasses; ++pass) {
    for (std::size_t i = 0; i < statements.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const flowdb::Table table = system.query(statements[i].text);
      const double us = us_between(t0, Clock::now());
      times.measured_us.add(us);
      times.nominal_us.add(us / slowdown);
      std::string text = table.to_string();
      if (pass == 0) {
        first[i] = std::move(text);
      } else {
        log.expect(text == first[i],
                   "answer changed between passes: " + statements[i].text);
      }
    }
  }
  const double passes_s = s_between(passes_start, Clock::now());
  for (std::size_t i = 0; i < statements.size(); ++i) {
    const Statement& st = statements[i];
    std::string error;
    const auto answer = check::parse_answer(first[i], &error);
    log.expect(answer.has_value(), st.text + ": " + error);
    if (!answer) continue;
    log.expect(answer->rows.size() == 1, st.text + ": expected one row");
    if (answer->rows.size() != 1) continue;
    // Totals are conserved; summaries are compressed, so a prefix answer is
    // a bound: compression only moves mass upward, out of the prefix.
    const double got = answer->rows[0].score;
    if (st.key.is_root()) {
      log.expect(check::same_weight(got, st.exact),
                 st.text + ": total " + std::to_string(got) + " != exact " +
                     std::to_string(st.exact));
    } else {
      log.expect(check::at_most(got, st.exact),
                 st.text + ": " + std::to_string(got) + " exceeds exact " +
                     std::to_string(st.exact));
    }
  }
  return passes_s;
}

}  // namespace

Report run_pipeline_ingest(const Options& options) {
  const Trace trace = make_trace(options.seed);
  const std::uint64_t flows_per_round = trace.flows;
  const std::vector<Statement> statements = verification_statements(trace);

  metrics::MetricsRegistry registry;
  std::unique_ptr<ThreadPool> pool;
  if (options.threads > 1) pool = std::make_unique<ThreadPool>(options.threads);
  auto pipeline = std::make_unique<Pipeline>(registry, pool.get());
  const double setup_s = s_between(options.process_start, Clock::now());

  // Whole rounds until the requested time has passed. Rates and latencies
  // are reported at the calibration's nominal host speed (bench.hpp); the
  // summary line shows them as measured too.
  CheckLog log;
  Calibration calibration;
  QueryTimes query_times;
  double ingest_s = 0.0;
  double ingest_nominal_s = 0.0;
  double query_s = 0.0;
  double query_nominal_s = 0.0;
  std::uint64_t rounds = 0;
  const Clock::time_point phase_start = Clock::now();
  for (;;) {
    const RoundTime t = ingest_round(*pipeline, trace, calibration);
    ingest_s += t.measured_s;
    ingest_nominal_s += t.nominal_s;
    ++rounds;
    const double passes_s = verify_round(pipeline->system, trace, statements,
                                         t.slowdown, query_times, log);
    query_s += passes_s;
    query_nominal_s += passes_s / t.slowdown;
    if (s_between(phase_start, Clock::now()) >= options.seconds) break;
    pipeline.reset();
    pipeline = std::make_unique<Pipeline>(registry, pool.get());
  }
  const std::uint64_t flows = rounds * flows_per_round;
  const auto queries = static_cast<double>(query_times.measured_us.size());
  std::printf("pipeline_ingest: %llu rounds, %llu flows in %.3f s of ingest; "
              "%.0f queries in %.3f s\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(flows), ingest_s, queries, query_s);
  std::printf("pipeline_ingest: as measured, %.0f flows/s, %.1f queries/s, "
              "p50 %.2f us, p99 %.2f us; calibration %zu slices, median "
              "%.1f us, slowdown %.4f\n",
              static_cast<double>(flows) / ingest_s, queries / query_s,
              query_times.measured_us.quantile(0.5),
              query_times.measured_us.quantile(0.99), calibration.slices(),
              calibration.median_us(), calibration.slowdown());
  std::printf("pipeline_ingest: %llu checks, %llu failed\n",
              static_cast<unsigned long long>(log.checks()),
              static_cast<unsigned long long>(log.failures()));

  Report report;
  report.correct = log.ok();
  report.attempted = rounds * kEpochs * kBatchesPerEpoch * kRouters +
                     query_times.measured_us.size();
  report.failed = 0;
  if (!options.trace) {
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    report.add("ingest_flows_per_s",
               static_cast<double>(flows) / ingest_nominal_s, "flows/s");
    report.add("queries_per_s", queries / query_nominal_s, "queries/s");
    report.add("query_p50_us", query_times.nominal_us.quantile(0.5), "us");
    return report;
  }
  const std::vector<Span> spans = tracing::collect();
  const metrics::Snapshot snap = registry.snapshot();
  const auto sum_suffix = [&](const std::string& suffix) {
    double total = 0.0;
    for (const auto& e : snap.entries) {
      if (e.name.starts_with("store.") && e.name.ends_with(suffix)) {
        total += e.value;
      }
    }
    return total;
  };
  // Counts are per round: every round ingests the same trace, so for a
  // seed they repeat exactly however many rounds a run completes.
  const auto per_round = [&](double count) {
    return count / static_cast<double>(rounds);
  };
  LayerMetrics layers;
  layers.set("flowstream.ingest_batch_us",
             tracing::durations_us(spans, "flowstream.ingest_batch").median());
  layers.set("flowstream.exports", per_round(snap.value("flowstream.exports")));
  layers.set("flowstream.export_wire_bytes",
             per_round(snap.value("flowstream.export_wire_bytes")));
  layers.set("flowstream.flows_per_summary",
             static_cast<double>(flows) /
                 snap.value("flowstream.summaries_indexed", 1.0));
  layers.set("sim.run_until_us",
             tracing::durations_us(spans, "sim.run_until").median());
  layers.set("store.seal_count", per_round(sum_suffix(".seal_count")));
  layers.set("store.compress_count", per_round(sum_suffix(".compress_count")));
  layers.set("store.merge_count", per_round(sum_suffix(".merge_count")));
  layers.set("net.messages", per_round(snap.value("net.messages")));
  layers.set("net.payload_bytes", per_round(snap.value("net.payload_bytes")));
  layers.set("net.wan_bytes_per_kflow",
             snap.value("net.payload_bytes") / (static_cast<double>(flows) / 1e3));
  layers.set("flowdb.decode_hits", per_round(snap.value("flowdb.decode_hits")));
  layers.set("flowdb.decode_misses",
             per_round(snap.value("flowdb.decode_misses")));
  layers.set("flowdb.memory_bytes",
             static_cast<double>(pipeline->system.db().memory_bytes()));
  layers.set("process.cpu_s", cpu_seconds());
  layers.set("query_p99_us", query_times.measured_us.quantile(0.99));
  layers.set("host.calibration_us", calibration.median_us());
  layers.emit(report);
  return report;
}

}  // namespace perfbench
