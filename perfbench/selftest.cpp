// Self-test of the output checks: each check must accept the program's real
// answer and reject a deliberately corrupted one — a perturbed weight, a
// dropped row, a missing summary, a top-k table out of order. A check that
// cannot fail checks nothing.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "flowdb/executor.hpp"
#include "flowdb/flowdb.hpp"
#include "gen.hpp"

namespace perfbench {
namespace {

using namespace megads;

constexpr std::size_t kSmallFlows = 80;   ///< uncompressed summaries
constexpr std::size_t kLargeFlows = 3000;  ///< compressed at budget 256

struct Fixture {
  std::vector<check::ExactSummary> exact;
  flowdb::FlowDB full{};     ///< every summary
  flowdb::FlowDB missing{};  ///< the last summary left out
  flow::Prefix hot;
};

/// Four summaries: two epochs x two sites, `flows` records each.
void build(Fixture& f, std::size_t flows, std::size_t budget) {
  flowtree::FlowtreeConfig config;
  config.node_budget = budget;
  FlowSource sources[2] = {FlowSource(99, 0), FlowSource(99, 1)};
  f.hot = sources[0].network(0);
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    for (std::size_t site = 0; site < 2; ++site) {
      check::ExactSummary exact;
      flowtree::Flowtree tree(config);
      for (std::size_t i = 0; i < flows; ++i) {
        const flow::FlowRecord r = sources[site].next(0);
        exact.add(r.key, static_cast<double>(r.bytes));
        tree.add(r.key, static_cast<double>(r.bytes));
      }
      const TimeInterval interval{static_cast<SimTime>(epoch) * kMinute,
                                  static_cast<SimTime>(epoch + 1) * kMinute};
      const std::string location = "site-" + std::to_string(site);
      f.full.add(tree, interval, location);
      if (epoch + site < 2) f.missing.add(tree, interval, location);
      f.exact.push_back(std::move(exact));
    }
  }
}

check::Selection select(const Fixture& f, std::size_t budget) {
  check::Selection s;
  for (const auto& e : f.exact) s.parts.push_back(&e);
  s.summary_high_water = budget + budget / 4;
  s.merge_high_water = 5120;  // FlowDB's default merge budget, 4096 x 1.25
  return s;
}

check::Answer answer_of(const flowdb::FlowDB& db, const std::string& statement) {
  std::string error;
  auto a = check::parse_answer(flowdb::run_flowql(statement, db).to_string(),
                               &error);
  if (!a) {
    std::fprintf(stderr, "selftest: cannot parse answer to %s: %s\n",
                 statement.c_str(), error.c_str());
    return {};
  }
  return *a;
}

class Suite {
 public:
  /// `check` must pass on `good` and fail on `bad`.
  void expect(const std::string& name, const check::Answer& good,
              const check::Answer& bad,
              const std::function<void(const check::Answer&, CheckLog&)>& check) {
    CheckLog on_good(false);
    CheckLog on_bad(false);
    check(good, on_good);
    check(bad, on_bad);
    const bool ok = on_good.ok() && !on_bad.ok();
    std::printf("  %-44s %s\n", name.c_str(),
                ok ? "ok" : (on_good.ok() ? "MISSED the corruption"
                                          : "REJECTED the real answer"));
    if (!ok) ++failures_;
  }
  [[nodiscard]] int failures() const noexcept { return failures_; }

 private:
  int failures_ = 0;
};

check::Answer perturbed(check::Answer a, std::size_t row, double factor) {
  if (row < a.rows.size()) a.rows[row].score *= factor;
  return a;
}
check::Answer dropped(check::Answer a, std::size_t row) {
  if (row < a.rows.size()) a.rows.erase(a.rows.begin() + static_cast<long>(row));
  return a;
}
check::Answer swapped(check::Answer a) {
  if (a.rows.size() >= 2) std::swap(a.rows[0], a.rows[1]);
  return a;
}

}  // namespace

int run_selftest() {
  Suite suite;
  std::printf("selftest: output checks against corrupted answers\n");

  Fixture small;
  build(small, kSmallFlows, 4096);
  const check::Selection exact = select(small, 4096);
  if (!exact.uncompressed()) {
    std::fprintf(stderr, "selftest: fixture unexpectedly compressed\n");
    return 1;
  }
  const flow::FlowKey root;
  const std::string window = " FROM 0s..120s";

  const check::Answer total = answer_of(small.full, "SELECT query" + window);
  suite.expect("total: perturbed weight", total, perturbed(total, 0, 1.001),
               [&](const check::Answer& a, CheckLog& log) {
                 check::query(a, root, exact, "total", log);
               });
  suite.expect("total: missing summary", total,
               answer_of(small.missing, "SELECT query" + window),
               [&](const check::Answer& a, CheckLog& log) {
                 check::query(a, root, exact, "total", log);
               });

  const check::Answer top = answer_of(small.full, "SELECT topk(10)" + window);
  const auto topk = [&](const check::Answer& a, CheckLog& log) {
    check::topk(a, 10, exact, "topk", log);
  };
  suite.expect("topk: out of order", top, swapped(top), topk);
  suite.expect("topk: perturbed weight", top, perturbed(top, 3, 0.99), topk);
  suite.expect("topk: dropped row", top, dropped(top, 4), topk);
  suite.expect("topk: missing summary", top,
               answer_of(small.missing, "SELECT topk(10)" + window), topk);

  const check::Answer drill = answer_of(small.full, "SELECT drilldown" + window);
  const auto drilldown = [&](const check::Answer& a, CheckLog& log) {
    check::drilldown(a, root, exact, "drilldown", log);
  };
  suite.expect("drilldown: dropped row", drill, dropped(drill, 1), drilldown);
  suite.expect("drilldown: perturbed weight", drill, perturbed(drill, 0, 0.99),
               drilldown);

  const check::Answer diff =
      answer_of(small.full, "SELECT diff(10) FROM 0s..60s, 60s..120s");
  check::Selection left;
  check::Selection right;
  for (std::size_t i = 0; i < small.exact.size(); ++i) {
    (i < 2 ? left : right).parts.push_back(&small.exact[i]);
  }
  left.summary_high_water = right.summary_high_water = exact.summary_high_water;
  left.merge_high_water = right.merge_high_water = exact.merge_high_water;
  const auto diffs = [&](const check::Answer& a, CheckLog& log) {
    check::diff(a, 10, left, right, "diff", log);
  };
  suite.expect("diff: out of order", diff, swapped(diff), diffs);
  suite.expect("diff: dropped row", diff, dropped(diff, 2), diffs);

  // Compressed summaries: the checks are bounds, and must still bite.
  Fixture large;
  build(large, kLargeFlows, 256);
  const check::Selection bound = select(large, 256);
  const check::Answer big_top = answer_of(large.full, "SELECT topk(10)" + window);
  suite.expect("compressed topk: out of order", big_top, swapped(big_top),
               [&](const check::Answer& a, CheckLog& log) {
                 check::topk(a, 10, bound, "topk", log);
               });
  flow::FlowKey hot;
  hot.with_src(large.hot);
  const check::Answer point = answer_of(
      large.full, "SELECT query" + window + " WHERE src = " + large.hot.to_string());
  check::Answer inflated = point;
  if (!inflated.rows.empty()) inflated.rows[0].score = bound.weight(hot) * 1.01;
  suite.expect("compressed point: weight above exact", point, inflated,
               [&](const check::Answer& a, CheckLog& log) {
                 check::query(a, hot, bound, "point", log);
               });
  const check::Answer big_total = answer_of(large.full, "SELECT query" + window);
  suite.expect("compressed total: missing summary", big_total,
               answer_of(large.missing, "SELECT query" + window),
               [&](const check::Answer& a, CheckLog& log) {
                 check::query(a, root, bound, "total", log);
               });

  std::string error;
  const bool rejects_garbage =
      !check::parse_answer("flow  score\n-----\nnot-a-flow  12\n", &error);
  std::printf("  %-44s %s\n", "parser: malformed row", rejects_garbage ? "ok" : "MISSED");
  const int failures = suite.failures() + (rejects_garbage ? 0 : 1);
  std::printf("selftest: %d failure%s\n", failures, failures == 1 ? "" : "s");
  return failures;
}

}  // namespace perfbench
