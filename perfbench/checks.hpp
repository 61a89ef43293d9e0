// Output checks. Every FlowQL answer the benchmark receives is parsed back
// from its rendered text and held against an exact aggregation the
// benchmark computes from the generated records itself — never against a
// stored copy of earlier output.
//
// Compression only folds mass upward, so a summary's answer for a key is at
// most the exact weight of that key, and totals are conserved. Where no
// summary in a selection was compressed (and the merged selection fits the
// merge budget, so the fold does not compress either), answers must equal
// the exact aggregation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "flow/flowkey.hpp"

namespace perfbench::check {

namespace flow = megads::flow;

struct Row {
  flow::FlowKey key;
  std::string key_text;
  double score = 0.0;
};

/// A rendered FlowQL table, parsed: `flow` and `score` columns per row.
struct Answer {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// Parse FlowKey::to_string() output ("proto=6 src=10.1.0.0/16:* dst=*:*").
[[nodiscard]] std::optional<flow::FlowKey> parse_key(const std::string& text);
/// Parse Table::to_string() output; nullopt (with `error`) when malformed.
[[nodiscard]] std::optional<Answer> parse_answer(const std::string& text,
                                                 std::string* error);

/// The exact aggregation of one summary's records: subtree weight of every
/// node of its (uncompressed) tree, and the leaves' own weights.
class ExactSummary {
 public:
  void add(const flow::FlowKey& leaf, double weight);
  [[nodiscard]] double total() const noexcept { return total_; }
  /// Nodes of the uncompressed tree (root included).
  [[nodiscard]] std::size_t nodes() const noexcept { return subtree_.size(); }
  [[nodiscard]] double subtree(const flow::FlowKey& key) const;
  [[nodiscard]] const std::unordered_map<flow::FlowKey, double>& subtree_map()
      const noexcept {
    return subtree_;
  }
  [[nodiscard]] const std::unordered_map<flow::FlowKey, double>& own_map()
      const noexcept {
    return own_;
  }

 private:
  std::unordered_map<flow::FlowKey, double> subtree_;
  std::unordered_map<flow::FlowKey, double> own_;
  double total_ = 0.0;
};

/// The summaries one statement selects, plus the budgets that decide
/// whether its answer must be exact.
struct Selection {
  std::vector<const ExactSummary*> parts;
  /// Compression high-water mark of each indexed summary and of the merge.
  std::size_t summary_high_water = 0;
  std::size_t merge_high_water = 0;

  [[nodiscard]] double total() const;
  [[nodiscard]] double weight(const flow::FlowKey& key) const;
  /// True when no part exceeds its budget and the union of their nodes fits
  /// the merge budget: the program's answer must then be exact.
  [[nodiscard]] bool uncompressed() const;
  /// Union of the parts' own weights (leaves).
  [[nodiscard]] std::unordered_map<flow::FlowKey, double> own() const;
  /// Children of `key` in the union tree, with exact subtree weights.
  [[nodiscard]] std::unordered_map<flow::FlowKey, double> children(
      const flow::FlowKey& key) const;
};

/// Display tolerance: answers print scores with 6 significant digits.
[[nodiscard]] bool same_weight(double answer, double exact);
[[nodiscard]] bool at_most(double answer, double exact);

// --- per-operator checks; each records what failed into `log` -------------

/// `SELECT query` with restriction `key`: one row; equals the exact weight
/// for the root (total conservation) or an uncompressed selection, and is
/// at most the exact weight otherwise.
void query(const Answer& a, const flow::FlowKey& key, const Selection& s,
           const std::string& what, CheckLog& log);
/// `SELECT drilldown` of `key`: rows ordered by weight, each at most exact,
/// summing to at most the exact weight of `key`; exact when uncompressed.
void drilldown(const Answer& a, const flow::FlowKey& key, const Selection& s,
               const std::string& what, CheckLog& log);
/// `SELECT topk(k)`: at most k rows, non-increasing, each at most exact;
/// the exact top-k when uncompressed.
void topk(const Answer& a, std::size_t k, const Selection& s,
          const std::string& what, CheckLog& log);
/// `SELECT above(x)`: non-increasing rows, each in [x, exact]; exactly the
/// leaves at or above x when uncompressed.
void above(const Answer& a, double x, const Selection& s,
           const std::string& what, CheckLog& log);
/// `SELECT hhh(phi)`: every row at most its exact weight.
void hhh(const Answer& a, const Selection& s, const std::string& what,
         CheckLog& log);
/// `SELECT diff(k)` of windows a - b: at most k rows ordered by magnitude,
/// each within [-exact_b, exact_a]; the exact own-weight diff when both
/// windows together are uncompressed.
void diff(const Answer& a, std::size_t k, const Selection& left,
          const Selection& right, const std::string& what, CheckLog& log);

}  // namespace perfbench::check
