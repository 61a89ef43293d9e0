// Workloads `dashboard_mix` and `served_scatter`: one statement mix over one
// data shape, run two ways.
//
//   dashboard_mix   one closed-loop client runs the mix through
//                   QueryPlanner::run against a single FlowDB (parse, plan +
//                   execute, render — the path the serving tier runs).
//   served_scatter  an in-process FlowQLServer (2 workers) serves the mix
//                   over loopback TCP to 2 closed-loop client connections;
//                   its source is a Coordinator over 4 by-time
//                   PartitionServers on the in-process LoopbackTransport.
//
// Data: kSites sites, one Flowtree summary per (epoch, site), built at
// set-up from generated flow records. Core sites carry many flows per epoch
// (their summaries are compressed); edge sites carry few (uncompressed, so
// narrow edge selections must answer exactly). Appends cycle through the
// kPoolEpochs pre-built epochs under new intervals, so the program always
// receives pre-built summaries and the reference sums stay precomputed.
//
// Statement classes (shares of the mix in kClassShare):
//   repeat  fixed dashboard panels over fixed windows (fits the view cache)
//   slide   panels over the newest kSlideEpochs epochs; the window advances
//           one epoch with every append
//   adhoc   drilldown / hhh / above / query over random windows and sites
//           (working set far beyond the view-cache budget)
//   diff    two adjacent random windows
// Every kAppendEvery-th operation appends the next epoch's summaries.
//
// Statements are generated before timing as templates around the FROM
// clause; a client fills in the window bounds from the published head epoch
// when it issues the statement. Answers are recorded and checked after the
// timed phase against exact sums over the generated records.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "common/metrics.hpp"
#include "flowdb/flowdb.hpp"
#include "flowdb/parser.hpp"
#include "flowdb/partitioned/coordinator.hpp"
#include "flowdb/partitioned/partitioner.hpp"
#include "flowdb/partitioned/server.hpp"
#include "flowdb/plan/planner.hpp"
#include "flowtree/flowtree.hpp"
#include "gen.hpp"
#include "net/transport.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace megads;

constexpr std::size_t kSites = 8;
constexpr std::size_t kCoreSites = 4;  ///< sites [0, kCoreSites) are core
constexpr std::size_t kCoreFlows = 600;   ///< flows per core summary
constexpr std::size_t kEdgeFlows = 40;    ///< flows per edge summary
constexpr std::size_t kPoolEpochs = 32;   ///< distinct pre-built epochs
constexpr std::size_t kInitialEpochs = 32;
constexpr SimDuration kEpoch = kMinute;
constexpr std::size_t kSummaryBudget = 256;   ///< nodes per indexed summary
constexpr std::size_t kMergeBudget = 1024;    ///< nodes per merged view
constexpr std::size_t kSlideEpochs = 8;
constexpr std::size_t kAdhocMaxEpochs = 16;
constexpr std::size_t kDiffMaxEpochs = 8;
constexpr std::uint64_t kAppendEvery = 64;
constexpr std::size_t kShards = 4;
constexpr std::size_t kShardWindowEpochs = 8;
constexpr std::size_t kClients = 2;
/// Statements generated per client: far more than any run issues, so the
/// list never runs out inside --seconds.
constexpr double kMaxStatementsPerSecond = 20000.0;

enum class Cls : std::uint8_t { kRepeat, kSlide, kAdhoc, kDiff };
constexpr std::size_t kClasses = 4;
constexpr const char* kClassName[kClasses] = {"repeat", "slide", "adhoc", "diff"};
constexpr double kClassShare[kClasses] = {0.30, 0.40, 0.20, 0.10};
// Span names per class (spans keep the pointer, so they must be literals).
constexpr const char* kPlanSpan[kClasses] = {"plan.run.repeat", "plan.run.slide",
                                             "plan.run.adhoc", "plan.run.diff"};
constexpr const char* kRttSpan[kClasses] = {"serve.rtt.repeat", "serve.rtt.slide",
                                            "serve.rtt.adhoc", "serve.rtt.diff"};
constexpr const char* kInprocSpan[kClasses] = {
    "serve.inproc.repeat", "serve.inproc.slide", "serve.inproc.adhoc",
    "serve.inproc.diff"};

enum class Op : std::uint8_t { kQuery, kDrilldown, kTopK, kAbove, kHHH, kDiff };

flowtree::FlowtreeConfig summary_config() {
  flowtree::FlowtreeConfig c;
  c.node_budget = kSummaryBudget;
  return c;
}
flowtree::FlowtreeConfig merge_config() {
  flowtree::FlowtreeConfig c;
  c.node_budget = kMergeBudget;
  return c;
}
std::size_t high_water(const flowtree::FlowtreeConfig& c) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(c.node_budget) * c.compress_slack));
}

std::string site_name(std::size_t site) { return "site-" + std::to_string(site); }
TimeInterval epoch_interval(std::size_t epoch) {
  return {static_cast<SimTime>(epoch) * kEpoch,
          static_cast<SimTime>(epoch + 1) * kEpoch};
}

// --- data ------------------------------------------------------------------------

struct Dataset {
  /// [pool epoch][site]; epoch e is served by pool entry e % kPoolEpochs.
  std::vector<std::vector<flowtree::Flowtree>> trees;
  std::vector<std::vector<check::ExactSummary>> exact;
  std::uint64_t flows_per_epoch = 0;
  /// Source prefixes the statements restrict on: hot /16s and their /8s.
  std::vector<flow::Prefix> prefixes;
};

Dataset build_dataset(std::uint64_t seed) {
  Dataset data;
  data.trees.resize(kPoolEpochs);
  data.exact.resize(kPoolEpochs);
  std::vector<FlowSource> sources;
  for (std::size_t s = 0; s < kSites; ++s) {
    sources.emplace_back(seed, static_cast<std::uint32_t>(s));
  }
  for (std::size_t rank = 0; rank < 4; ++rank) {
    data.prefixes.push_back(sources[0].network(rank));
    data.prefixes.push_back(sources[0].network(rank).shortened(8));
  }
  std::vector<primitives::StreamItem> items;
  for (std::size_t p = 0; p < kPoolEpochs; ++p) {
    for (std::size_t s = 0; s < kSites; ++s) {
      const std::size_t n = s < kCoreSites ? kCoreFlows : kEdgeFlows;
      check::ExactSummary exact;
      items.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const SimTime ts = epoch_interval(p).begin +
                           static_cast<SimTime>(i) * kEpoch /
                               static_cast<SimTime>(n);
        const flow::FlowRecord r = sources[s].next(ts);
        exact.add(r.key, static_cast<double>(r.bytes));
        items.push_back({r.key, static_cast<double>(r.bytes), ts});
      }
      if (p == 0) data.flows_per_epoch += n;
      flowtree::Flowtree tree(summary_config());
      {
        const ScopedSpan span("flowtree.build");
        tree.insert_batch(items);
      }
      data.trees[p].push_back(std::move(tree));
      data.exact[p].push_back(std::move(exact));
    }
  }
  return data;
}

// --- the statement mix ----------------------------------------------------------------

/// A statement template: SELECT <head> FROM <window(s)> <tail>.
struct Template {
  Cls cls = Cls::kRepeat;
  Op op = Op::kQuery;
  double arg = 0.0;
  flow::FlowKey key;  ///< restriction of query / drilldown
  std::vector<std::size_t> sites;  ///< empty = every site
  std::string head;
  std::string tail;
};

/// One issued statement: a template plus its window.
struct Issue {
  std::uint32_t tmpl = 0;
  /// Window: repeat uses [a, b) as is; slide ends at the head; adhoc / diff
  /// place their window at fraction `u` of the history.
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t len = 0;
  float u = 0.0f;
};

/// The resolved selection of an issued statement (epoch ranges).
struct Resolved {
  std::uint32_t tmpl = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t end2 = 0;  ///< diff: second window is [end, end2)
};

class Mix {
 public:
  explicit Mix(const Dataset& data) {
    const flow::FlowKey root;
    const auto src_key = [](const flow::Prefix& p) {
      flow::FlowKey k;
      k.with_src(p);
      return k;
    };
    // repeat panels: fixed windows inside the initial history.
    repeat_.push_back({add(Cls::kRepeat, Op::kTopK, 10, root, {}), 24, 32});
    repeat_.push_back({add(Cls::kRepeat, Op::kQuery, 0, root, {}), 0, 32});
    repeat_.push_back({add(Cls::kRepeat, Op::kHHH, 0.05, root, {0}), 16, 32});
    repeat_.push_back({add(Cls::kRepeat, Op::kDrilldown, 0, root, {1}), 16, 32});
    repeat_.push_back({add(Cls::kRepeat, Op::kTopK, 10, root, {5}), 28, 32});
    repeat_.push_back({add(Cls::kRepeat, Op::kQuery, 0,
                           src_key(data.prefixes[0]), {2}), 0, 32});
    repeat_.push_back({add(Cls::kRepeat, Op::kDrilldown, 0,
                           src_key(data.prefixes[1]), {}), 24, 32});
    repeat_.push_back({add(Cls::kRepeat, Op::kAbove, 1e5, root, {6}), 30, 32});
    // slide panels: the newest kSlideEpochs epochs.
    slide_.push_back(add(Cls::kSlide, Op::kTopK, 10, root, {}));
    slide_.push_back(add(Cls::kSlide, Op::kQuery, 0, root, {}));
    slide_.push_back(add(Cls::kSlide, Op::kTopK, 10, root, {4}));
    slide_.push_back(add(Cls::kSlide, Op::kHHH, 0.05, root, {3}));
    prefixes_ = data.prefixes;
  }

  /// Pre-generate `count` statements. Repeat and slide panels are shared
  /// by every client (same templates); adhoc and diff draw from `seed`.
  std::vector<Issue> generate(std::uint64_t seed, std::size_t count) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<Issue> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double c = unit(rng);
      Issue issue;
      if (c < kClassShare[0]) {
        const RepeatPanel& p = repeat_[rng() % repeat_.size()];
        issue.tmpl = p.tmpl;
        issue.a = p.a;
        issue.b = p.b;
      } else if (c < kClassShare[0] + kClassShare[1]) {
        issue.tmpl = slide_[rng() % slide_.size()];
        issue.len = kSlideEpochs;
      } else if (c < kClassShare[0] + kClassShare[1] + kClassShare[2]) {
        issue.tmpl = adhoc_template(rng);
        issue.len = static_cast<std::uint16_t>(1 + rng() % kAdhocMaxEpochs);
        issue.u = static_cast<float>(unit(rng));
      } else {
        std::vector<std::size_t> sites;
        if (rng() % 2 == 0) sites.push_back(rng() % kSites);
        issue.tmpl = add(Cls::kDiff, Op::kDiff, 10, flow::FlowKey(), sites);
        issue.len = static_cast<std::uint16_t>(1 + rng() % kDiffMaxEpochs);
        issue.u = static_cast<float>(unit(rng));
      }
      out.push_back(issue);
    }
    return out;
  }

  [[nodiscard]] Resolved resolve(const Issue& issue, std::size_t head) const {
    const Template& t = templates_[issue.tmpl];
    Resolved r;
    r.tmpl = issue.tmpl;
    switch (t.cls) {
      case Cls::kRepeat:
        r.begin = issue.a;
        r.end = issue.b;
        break;
      case Cls::kSlide:
        r.begin = head - issue.len;
        r.end = head;
        break;
      case Cls::kAdhoc:
        r.begin = static_cast<std::size_t>(issue.u *
                                           static_cast<float>(head - issue.len));
        r.end = r.begin + issue.len;
        break;
      case Cls::kDiff:
        r.begin = static_cast<std::size_t>(
            issue.u * static_cast<float>(head - 2 * issue.len));
        r.end = r.begin + issue.len;
        r.end2 = r.end + issue.len;
        break;
    }
    return r;
  }

  /// The statement text of a resolved issue.
  [[nodiscard]] std::string text(const Resolved& r) const {
    const Template& t = templates_[r.tmpl];
    const auto secs = [](std::size_t epoch) {
      return std::to_string(static_cast<SimTime>(epoch) * kEpoch / kSecond) + "s";
    };
    std::string s = t.head;
    s += secs(r.begin) + ".." + secs(r.end);
    if (t.op == Op::kDiff) s += ", " + secs(r.end) + ".." + secs(r.end2);
    s += t.tail;
    return s;
  }

  [[nodiscard]] const Template& tmpl(std::uint32_t id) const {
    return templates_[id];
  }

 private:
  struct RepeatPanel {
    std::uint32_t tmpl;
    std::uint16_t a;
    std::uint16_t b;
  };

  std::uint32_t add(Cls cls, Op op, double arg, const flow::FlowKey& key,
                    std::vector<std::size_t> sites) {
    Template t;
    t.cls = cls;
    t.op = op;
    t.arg = arg;
    t.key = key;
    t.sites = std::move(sites);
    char arg_text[32];
    std::snprintf(arg_text, sizeof(arg_text), "%.10g", arg);
    switch (op) {
      case Op::kQuery: t.head = "SELECT query FROM "; break;
      case Op::kDrilldown: t.head = "SELECT drilldown FROM "; break;
      case Op::kTopK: t.head = "SELECT topk(" + std::string(arg_text) + ") FROM "; break;
      case Op::kAbove: t.head = "SELECT above(" + std::string(arg_text) + ") FROM "; break;
      case Op::kHHH: t.head = "SELECT hhh(" + std::string(arg_text) + ") FROM "; break;
      case Op::kDiff: t.head = "SELECT diff(" + std::string(arg_text) + ") FROM "; break;
    }
    std::vector<std::string> conds;
    if (!key.is_root()) conds.push_back("src = " + key.src().to_string());
    for (const std::size_t s : t.sites) {
      conds.push_back("location = '" + site_name(s) + "'");
    }
    for (std::size_t i = 0; i < conds.size(); ++i) {
      t.tail += (i == 0 ? " WHERE " : " AND ") + conds[i];
    }
    // Intern: identical templates share one id.
    const std::string id = std::to_string(static_cast<int>(cls)) + "|" + t.head + t.tail;
    const auto [it, inserted] =
        index_.emplace(id, static_cast<std::uint32_t>(templates_.size()));
    if (inserted) templates_.push_back(std::move(t));
    return it->second;
  }

  std::uint32_t adhoc_template(std::mt19937_64& rng) {
    std::vector<std::size_t> sites;
    const std::uint64_t spread = rng() % 4;  // 2/4 one site, 1/4 two, 1/4 all
    if (spread < 2) {
      sites.push_back(rng() % kSites);
    } else if (spread == 2) {
      const std::size_t first = rng() % kSites;
      sites.push_back(first);
      sites.push_back((first + 1 + rng() % (kSites - 1)) % kSites);
    }
    flow::FlowKey key;
    if (rng() % 2 == 0) key.with_src(prefixes_[rng() % prefixes_.size()]);
    switch (rng() % 4) {
      case 0: return add(Cls::kAdhoc, Op::kDrilldown, 0, key, sites);
      case 1: return add(Cls::kAdhoc, Op::kQuery, 0, key, sites);
      case 2: {
        static constexpr double kPhi[] = {0.02, 0.05, 0.1};
        return add(Cls::kAdhoc, Op::kHHH, kPhi[rng() % 3], flow::FlowKey(), sites);
      }
      default:
        return add(Cls::kAdhoc, Op::kAbove, rng() % 2 == 0 ? 1e5 : 1e6,
                   flow::FlowKey(), sites);
    }
  }

  std::vector<Template> templates_;
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<RepeatPanel> repeat_;
  std::vector<std::uint32_t> slide_;
  std::vector<flow::Prefix> prefixes_;
};

// --- answers and their checks -------------------------------------------------------

/// Answers seen by one client: the first rendering of each distinct
/// statement (checked after the run) and a count of repeats that differed.
struct AnswerLog {
  struct Entry {
    Resolved resolved;
    std::string answer;
  };
  std::unordered_map<std::string, Entry> first;
  std::vector<std::string> changed;

  void record(const std::string& statement, const Resolved& r,
              std::string answer) {
    const auto [it, inserted] = first.try_emplace(statement);
    if (inserted) {
      it->second = {r, std::move(answer)};
    } else if (it->second.answer != answer) {
      changed.push_back(statement);
    }
  }
};

check::Selection selection(const Dataset& data, const Template& t,
                           std::size_t begin, std::size_t end) {
  check::Selection s;
  s.summary_high_water = high_water(summary_config());
  s.merge_high_water = high_water(merge_config());
  for (std::size_t e = begin; e < end; ++e) {
    for (std::size_t site = 0; site < kSites; ++site) {
      if (!t.sites.empty() &&
          std::find(t.sites.begin(), t.sites.end(), site) == t.sites.end()) {
        continue;
      }
      s.parts.push_back(&data.exact[e % kPoolEpochs][site]);
    }
  }
  return s;
}

void check_answers(const Dataset& data, const Mix& mix,
                   const std::vector<AnswerLog>& logs, CheckLog& log) {
  std::unordered_map<std::string, const std::string*> seen;
  for (const AnswerLog& client : logs) {
    for (const std::string& statement : client.changed) {
      log.fail("answer changed between repeats: " + statement);
    }
    for (const auto& [statement, entry] : client.first) {
      // Clients sharing a statement must see the same answer.
      const auto [it, inserted] = seen.emplace(statement, &entry.answer);
      if (!inserted) {
        log.expect(*it->second == entry.answer,
                   "clients disagree on: " + statement);
        continue;
      }
      std::string error;
      const auto answer = check::parse_answer(entry.answer, &error);
      log.expect(answer.has_value(), statement + ": " + error);
      if (!answer) continue;
      const Resolved& r = entry.resolved;
      const Template& t = mix.tmpl(r.tmpl);
      const check::Selection s = selection(data, t, r.begin, r.end);
      const auto k = static_cast<std::size_t>(t.arg);
      switch (t.op) {
        case Op::kQuery: check::query(*answer, t.key, s, statement, log); break;
        case Op::kDrilldown:
          check::drilldown(*answer, t.key, s, statement, log);
          break;
        case Op::kTopK: check::topk(*answer, k, s, statement, log); break;
        case Op::kAbove: check::above(*answer, t.arg, s, statement, log); break;
        case Op::kHHH: check::hhh(*answer, s, statement, log); break;
        case Op::kDiff:
          check::diff(*answer, k, s, selection(data, t, r.end, r.end2), statement,
                      log);
          break;
      }
    }
  }
}

// --- the closed loop ------------------------------------------------------------------

/// Shared by every client: the op counter that schedules appends, the head
/// epoch (epochs [0, head) are fully indexed and visible), the time of each
/// append, and the host-speed calibration (bench.hpp), which runs one slice
/// before the timed phase and one after each append; `slowdown` is the
/// latest slice's, and scales the timings of the loop iterations from the
/// one that ran it until the next to the nominal host speed. Guarded by
/// append_mu.
struct LoopState {
  LoopState() { slowdown.store(calibration.slice()); }
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::size_t> head{kInitialEpochs};
  std::mutex append_mu;
  std::atomic<std::uint64_t> appends{0};
  Samples append_us;
  Samples append_nominal_us;
  Calibration calibration;
  std::atomic<double> slowdown{1.0};
};

struct ClientResult {
  Samples latency_us;
  Samples nominal_us;
  /// The client's seconds in the loop, slices left out, at nominal speed.
  double nominal_s = 0.0;
  Samples latency_by_class_us[kClasses];
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  AnswerLog answers;
};

/// Runs issues until the deadline. `execute` answers one statement (returns
/// false when the request failed); `append` appends epoch `e`.
void closed_loop(const Mix& mix, const std::vector<Issue>& issues,
                 LoopState& state, Clock::time_point deadline,
                 const std::function<bool(const std::string&, Cls, std::string&)>& execute,
                 const std::function<void(std::size_t)>& append,
                 ClientResult& out) {
  std::string answer;
  Clock::time_point mark = Clock::now();
  for (const Issue& issue : issues) {
    if (Clock::now() >= deadline) break;
    double slice_s = 0.0;
    if (state.ops.fetch_add(1) % kAppendEvery == kAppendEvery - 1) {
      const std::lock_guard lock(state.append_mu);
      const std::size_t epoch = state.head.load();
      const Clock::time_point t0 = Clock::now();
      append(epoch);
      const Clock::time_point t1 = Clock::now();
      state.head.store(epoch + 1);
      state.appends.fetch_add(1);
      const double slowdown = state.calibration.slice();
      slice_s = s_between(t1, Clock::now());
      state.slowdown.store(slowdown);
      state.append_us.add(us_between(t0, t1));
      state.append_nominal_us.add(us_between(t0, t1) / slowdown);
    }
    const double slowdown = state.slowdown.load();
    const Resolved r = mix.resolve(issue, state.head.load());
    const std::string statement = mix.text(r);
    const Cls cls = mix.tmpl(r.tmpl).cls;
    tracing::begin_request();
    const Clock::time_point t0 = Clock::now();
    const bool ok = execute(statement, cls, answer);
    const Clock::time_point t1 = Clock::now();
    const double us = us_between(t0, t1);
    out.nominal_s += (s_between(mark, t1) - slice_s) / slowdown;
    mark = t1;
    ++out.queries;
    if (!ok) {
      ++out.failed;
      continue;
    }
    out.latency_us.add(us);
    out.nominal_us.add(us / slowdown);
    out.latency_by_class_us[static_cast<std::size_t>(cls)].add(us);
    out.answers.record(statement, r, std::move(answer));
  }
}

std::size_t statement_budget(const Options& options) {
  return static_cast<std::size_t>(options.seconds * kMaxStatementsPerSecond) + 1000;
}

// Timings are at the calibration's nominal host speed: each loop iteration
// (a statement, and an append when it is the client's turn) is scaled by
// the latest slice before its statement, which for an append is the slice
// run right after it; print_summary shows them as measured.
// queries_per_s sums each closed-loop client's statements over its own
// seconds in the loop, slices left out. ingest_flows_per_s is the flows of
// one append (one epoch's summaries) over the median time of an append: the
// appends are few and short, so one preempted append would move a sum over
// them far more than the median.
void add_end_to_end(Report& report, double setup_s,
                    const std::vector<ClientResult>& clients,
                    const LoopState& state, const Dataset& data) {
  Samples nominal_us;
  double queries_per_s = 0.0;
  for (const ClientResult& c : clients) {
    nominal_us.append(c.nominal_us);
    queries_per_s += static_cast<double>(c.queries) / c.nominal_s;
  }
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  report.add("ingest_flows_per_s",
             static_cast<double>(data.flows_per_epoch) /
                 (state.append_nominal_us.median() / 1e6),
             "flows/s");
  report.add("queries_per_s", queries_per_s, "queries/s");
  report.add("query_p50_us", nominal_us.quantile(0.5), "us");
}

void print_summary(const char* workload, double phase_s,
                   const std::vector<ClientResult>& clients,
                   const LoopState& state, const CheckLog& log) {
  std::uint64_t queries = 0;
  Samples latency;
  for (const ClientResult& c : clients) {
    queries += c.queries;
    latency.append(c.latency_us);
  }
  std::printf("%s: %llu statements, %llu appends in %.3f s\n", workload,
              static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(state.appends.load()), phase_s);
  for (std::size_t c = 0; c < kClasses; ++c) {
    Samples s;
    for (const ClientResult& r : clients) s.append(r.latency_by_class_us[c]);
    std::printf("  %-6s n=%-7zu p50 %9.1f us  p99 %9.1f us\n", kClassName[c],
                s.size(), s.quantile(0.5), s.quantile(0.99));
  }
  std::printf("%s: as measured, %.1f queries/s, p50 %.1f us, p99 %.1f us, "
              "append %.1f us; calibration %zu slices, median %.1f us, "
              "slowdown %.4f\n",
              workload, static_cast<double>(queries) / phase_s,
              latency.quantile(0.5), latency.quantile(0.99),
              state.append_us.median(), state.calibration.slices(),
              state.calibration.median_us(), state.calibration.slowdown());
  std::printf("%s: %llu checks, %llu failed\n", workload,
              static_cast<unsigned long long>(log.checks()),
              static_cast<unsigned long long>(log.failures()));
}

// Counters are per statement: a faster program answers more statements in
// the same time, so per-run counts would move with speed alone.
void set_view_cache(LayerMetrics& layers, const metrics::Snapshot& snap,
                    double statements) {
  const double hits = snap.value("flowdb.view_cache_hits");
  const double misses = snap.value("flowdb.view_cache_misses");
  layers.set("flowdb.view_cache_hits", hits / statements);
  layers.set("flowdb.view_cache_misses", misses / statements);
  layers.set("flowdb.view_cache_evictions",
             snap.value("flowdb.view_cache_evictions") / statements);
  layers.set("flowdb.view_cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);
}

void set_plan(LayerMetrics& layers, const flowdb::plan::QueryPlanner::Stats& st,
              double statements) {
  layers.set("plan.read_only_folds",
             static_cast<double>(st.read_only_folds) / statements);
  layers.set("plan.shared_folds", static_cast<double>(st.shared_folds) / statements);
  layers.set("plan.fallbacks", static_cast<double>(st.fallbacks) / statements);
}

// Tail latency as measured (the per-layer figures are not scaled to the
// nominal host speed), and the calibration's median slice.
void set_p99_and_host(LayerMetrics& layers, const std::vector<ClientResult>& clients,
                      const LoopState& state) {
  Samples latency;
  for (const ClientResult& c : clients) latency.append(c.latency_us);
  layers.set("query_p99_us", latency.quantile(0.99));
  layers.set("host.calibration_us", state.calibration.median_us());
}

// --- served_scatter plumbing ------------------------------------------------------------

/// Loopback transport that counts the payload bytes of scatter-gather
/// messages (kQueryRequest / kQueryResponse, the type byte of the fixed
/// envelope header: u32 magic, u8 version, u8 type) apart from appends.
class CountingTransport final : public net::Transport {
 public:
  SimTime send(NodeId from, NodeId to, std::uint64_t bytes,
               DeliveryCallback on_delivered) override {
    return inner_.send(from, to, bytes, std::move(on_delivered));
  }
  SimTime send_message(NodeId from, NodeId to,
                       std::vector<std::uint8_t> payload) override {
    const int type = payload.size() > 5 ? payload[5] : 0;
    if (type == 2 || type == 3) {
      scatter_bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
    }
    return inner_.send_message(from, to, std::move(payload));
  }
  void bind(NodeId node, MessageHandler handler) override {
    inner_.bind(node, std::move(handler));
  }
  void unbind(NodeId node) override { inner_.unbind(node); }
  [[nodiscard]] SimDuration transfer_time_unloaded(
      NodeId from, NodeId to, std::uint64_t bytes) const override {
    return inner_.transfer_time_unloaded(from, to, bytes);
  }
  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  void run_until_idle() override { inner_.run_until_idle(); }
  [[nodiscard]] net::TransferStats stats() const override {
    return inner_.stats();
  }
  void attach_metrics(metrics::MetricsRegistry& registry) override {
    inner_.attach_metrics(registry);
  }
  [[nodiscard]] std::uint64_t scatter_bytes() const {
    return scatter_bytes_.load();
  }

 private:
  net::LoopbackTransport inner_;
  std::atomic<std::uint64_t> scatter_bytes_{0};
};

/// A statement a served_scatter client issued (traced runs only).
struct Issued {
  std::string text;
  Cls cls;
};

/// After the timed phase, once the clients are done and the server stopped:
/// runs up to kReplayPerClass of each class's served statements (an even
/// stride through the run) through QueryPlanner::run on the Coordinator, in
/// process and alone, under the serve.inproc spans. RTT minus this time is
/// the serving tier's share plus the contention of the served load.
constexpr std::size_t kReplayPerClass = 300;

void replay_in_process(const std::vector<std::vector<Issued>>& issued,
                       const flowdb::dist::Coordinator& coordinator) {
  std::vector<const Issued*> by_class[kClasses];
  for (const std::vector<Issued>& client : issued) {
    for (const Issued& i : client) {
      by_class[static_cast<std::size_t>(i.cls)].push_back(&i);
    }
  }
  flowdb::plan::QueryPlanner planner;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::vector<const Issued*>& all = by_class[c];
    const std::size_t stride = (all.size() + kReplayPerClass - 1) / kReplayPerClass;
    for (std::size_t i = 0; i < all.size(); i += stride) {
      tracing::begin_request();
      const ScopedSpan span(kInprocSpan[c]);
      (void)planner.run(all[i]->text, coordinator);
    }
  }
}

}  // namespace

// --- dashboard_mix ------------------------------------------------------------------------

Report run_dashboard_mix(const Options& options) {
  const Dataset data = build_dataset(options.seed);
  Mix mix(data);
  const std::vector<Issue> issues =
      mix.generate(options.seed * 31 + 7, statement_budget(options));

  metrics::MetricsRegistry registry;
  flowdb::FlowDB db(merge_config());
  db.attach_metrics(registry);
  for (std::size_t e = 0; e < kInitialEpochs; ++e) {
    for (std::size_t s = 0; s < kSites; ++s) {
      db.add(data.trees[e % kPoolEpochs][s], epoch_interval(e), site_name(s));
    }
  }
  flowdb::plan::QueryPlanner planner;
  const double setup_s = s_between(options.process_start, Clock::now());

  LoopState state;
  std::vector<ClientResult> clients(1);
  const auto execute = [&](const std::string& text, Cls cls, std::string& answer) {
    flowdb::Statement statement;
    {
      const ScopedSpan span("flowdb.parse");
      statement = flowdb::parse(text);
    }
    flowdb::Table table;
    {
      const ScopedSpan span(kPlanSpan[static_cast<std::size_t>(cls)]);
      table = planner.run(statement, db);
    }
    const ScopedSpan span("flowdb.render");
    answer = table.to_string();
    return true;
  };
  const auto append = [&](std::size_t epoch) {
    for (std::size_t s = 0; s < kSites; ++s) {
      const ScopedSpan span("flowdb.add");
      db.add(data.trees[epoch % kPoolEpochs][s], epoch_interval(epoch),
             site_name(s));
    }
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  closed_loop(mix, issues, state, deadline, execute, append, clients[0]);
  const double phase_s = s_between(start, Clock::now());

  CheckLog log;
  log.expect(clients[0].failed == 0, "failed statements");
  check_answers(data, mix, {clients[0].answers}, log);
  const std::uint64_t appends = state.appends.load();
  print_summary("dashboard_mix", phase_s, clients, state, log);

  Report report;
  report.correct = log.ok();
  report.attempted = clients[0].queries + appends;
  report.failed = clients[0].failed;
  if (!options.trace) {
    add_end_to_end(report, setup_s, clients, state, data);
    return report;
  }
  const std::vector<Span> spans = tracing::collect();
  const metrics::Snapshot snap = registry.snapshot();
  LayerMetrics layers;
  layers.set("flowdb.parse_us", tracing::durations_us(spans, "flowdb.parse").median());
  layers.set("flowdb.render_us",
             tracing::durations_us(spans, "flowdb.render").median());
  layers.set("flowdb.add_us", tracing::durations_us(spans, "flowdb.add").median());
  const auto statements = static_cast<double>(clients[0].queries);
  set_view_cache(layers, snap, statements);
  layers.set("flowdb.view_cache_bytes", snap.value("flowdb.view_cache_bytes"));
  layers.set("flowdb.memory_bytes", static_cast<double>(db.memory_bytes()));
  for (std::size_t c = 0; c < kClasses; ++c) {
    layers.set(std::string("plan.run_us.") + kClassName[c],
               tracing::durations_us(spans, kPlanSpan[c]).median());
  }
  set_plan(layers, planner.stats(), statements);
  layers.set("flowtree.build_us",
             tracing::durations_us(spans, "flowtree.build").median());
  layers.set("process.cpu_s", cpu_seconds());
  set_p99_and_host(layers, clients, state);
  layers.emit(report);
  return report;
}

// --- served_scatter ---------------------------------------------------------------------

Report run_served_scatter(const Options& options) {
  const Dataset data = build_dataset(options.seed);
  Mix mix(data);
  std::vector<std::vector<Issue>> issues;
  for (std::size_t c = 0; c < kClients; ++c) {
    // Same panels, different adhoc / diff seeds per connection.
    issues.push_back(mix.generate(options.seed * 31 + 7 + c * 1000003,
                                  statement_budget(options)));
  }

  metrics::MetricsRegistry registry;
  CountingTransport transport;
  std::vector<std::unique_ptr<flowdb::dist::PartitionServer>> servers;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < kShards; ++i) {
    const NodeId node(static_cast<std::uint32_t>(i + 1));
    servers.push_back(std::make_unique<flowdb::dist::PartitionServer>(
        transport, node, merge_config()));
    servers.back()->db().attach_metrics(registry);
    nodes.push_back(node);
  }
  flowdb::dist::Coordinator::Options coord_options;
  coord_options.tree_config = merge_config();
  // One record per kAddBatch: add() then ships on the appending thread and
  // returns once the shard indexed it. With larger batches a concurrent
  // query's implicit flush can take an append's batch, and the appender's
  // flush() returns before that batch lands, so a just-published epoch is
  // sometimes half visible (see the FOUND: line in CHANGES.md).
  coord_options.add_batch_size = 1;
  flowdb::dist::Coordinator coordinator(
      transport, NodeId(0),
      std::make_unique<flowdb::dist::TimePartitioner>(
          static_cast<SimDuration>(kShardWindowEpochs) * kEpoch),
      nodes, coord_options);
  coordinator.attach_metrics(registry);
  for (std::size_t e = 0; e < kInitialEpochs; ++e) {
    for (std::size_t s = 0; s < kSites; ++s) {
      coordinator.add(data.trees[e % kPoolEpochs][s], epoch_interval(e),
                      site_name(s));
    }
  }
  coordinator.flush();
  serve::FlowQLServer::Options server_options;
  server_options.workers = 2;
  serve::FlowQLServer server(coordinator, server_options);
  server.attach_metrics(registry);
  server.start();
  std::vector<std::unique_ptr<serve::Client>> connections;
  for (std::size_t c = 0; c < kClients; ++c) {
    connections.push_back(
        std::make_unique<serve::Client>("127.0.0.1", server.port()));
  }
  const double setup_s = s_between(options.process_start, Clock::now());

  LoopState state;
  std::vector<ClientResult> clients(kClients);
  const auto append = [&](std::size_t epoch) {
    const ScopedSpan span("coordinator.append");
    for (std::size_t s = 0; s < kSites; ++s) {
      coordinator.add(data.trees[epoch % kPoolEpochs][s], epoch_interval(epoch),
                      site_name(s));
    }
    coordinator.flush();
  };
  // Traced runs keep every served statement for the in-process replay.
  std::vector<std::vector<Issued>> issued(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client& client = *connections[c];
      const auto execute = [&](const std::string& text, Cls cls,
                               std::string& answer) {
        const std::size_t k = static_cast<std::size_t>(cls);
        serve::Client::Result result;
        {
          const ScopedSpan span(kRttSpan[k]);
          result = client.query(text);
        }
        if (tracing::enabled()) issued[c].push_back({text, cls});
        if (!result.ok) {
          std::fprintf(stderr, "served request failed: %s\n",
                       result.message.c_str());
          return false;
        }
        answer = std::move(result.text);
        return true;
      };
      closed_loop(mix, issues[c], state, deadline, execute, append, clients[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  const double phase_s = s_between(start, Clock::now());
  const serve::FlowQLServer::Stats stats = server.stats();
  connections.clear();
  server.stop();

  CheckLog log;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::vector<AnswerLog> answer_logs;
  for (const ClientResult& c : clients) {
    queries += c.queries;
    failed += c.failed;
    answer_logs.push_back(c.answers);
  }
  log.expect(failed == 0, std::to_string(failed) + " served requests failed");
  log.expect(stats.requests >= queries, "server saw fewer requests than sent");
  check_answers(data, mix, answer_logs, log);
  const std::uint64_t appends = state.appends.load();
  print_summary("served_scatter", phase_s, clients, state, log);

  Report report;
  report.correct = log.ok();
  report.attempted = queries + appends;
  report.failed = failed;
  if (!options.trace) {
    add_end_to_end(report, setup_s, clients, state, data);
    return report;
  }
  // Counters first: the replay below also reaches the coordinator and the
  // shards' view caches.
  const metrics::Snapshot snap = registry.snapshot();
  const std::uint64_t remote_shard_queries = coordinator.remote_shard_queries();
  const std::uint64_t fanout_pruned = coordinator.fanout_pruned_shards();
  const std::uint64_t response_decodes = coordinator.response_decodes();
  const std::uint64_t scatter_bytes = transport.scatter_bytes();
  replay_in_process(issued, coordinator);
  const std::vector<Span> spans = tracing::collect();
  const auto mean_of = [&](const char* histogram) {
    const metrics::SnapshotEntry* e = snap.find(histogram);
    return e != nullptr && e->count > 0 ? e->sum / static_cast<double>(e->count)
                                        : 0.0;
  };
  const auto served = static_cast<double>(queries);
  LayerMetrics layers;
  set_view_cache(layers, snap, served);
  for (std::size_t c = 0; c < kClasses; ++c) {
    layers.set(std::string("serve.rtt_us.") + kClassName[c],
               tracing::durations_us(spans, kRttSpan[c]).median());
    layers.set(std::string("serve.inproc_us.") + kClassName[c],
               tracing::durations_us(spans, kInprocSpan[c]).median());
  }
  layers.set("serve.bytes_in_per_query", static_cast<double>(stats.bytes_in) / served);
  layers.set("serve.bytes_out_per_query",
             static_cast<double>(stats.bytes_out) / served);
  layers.set("sched.queue_wait_us", mean_of("serve.sched.queue_wait_us"));
  layers.set("sched.service_us", mean_of("serve.sched.service_us"));
  set_plan(layers, server.planner().stats(), served);
  layers.set("coordinator.remote_shard_queries",
             static_cast<double>(remote_shard_queries) / served);
  layers.set("coordinator.fanout_pruned_shards",
             static_cast<double>(fanout_pruned) / served);
  layers.set("coordinator.response_decodes", static_cast<double>(response_decodes));
  layers.set("coordinator.add_us",
             tracing::durations_us(spans, "coordinator.append").median() /
                 static_cast<double>(kSites));
  layers.set("coordinator.scatter_bytes_per_query",
             static_cast<double>(scatter_bytes) / served);
  layers.set("flowtree.build_us",
             tracing::durations_us(spans, "flowtree.build").median());
  layers.set("process.cpu_s", cpu_seconds());
  set_p99_and_host(layers, clients, state);
  layers.emit(report);
  return report;
}

}  // namespace perfbench
