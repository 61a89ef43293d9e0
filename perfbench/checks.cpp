#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <unordered_set>

namespace perfbench::check {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(' ');
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(' ');
  return s.substr(b, e - b + 1);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::optional<std::pair<flow::Prefix, std::optional<std::uint16_t>>>
parse_endpoint(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos) return std::nullopt;
  const std::string addr = text.substr(0, colon);
  const std::string port = text.substr(colon + 1);
  flow::Prefix prefix;
  if (addr != "*") prefix = flow::Prefix::parse(addr);
  std::optional<std::uint16_t> p;
  if (port != "*") {
    const unsigned long v = std::stoul(port);
    if (v > 65535) return std::nullopt;
    p = static_cast<std::uint16_t>(v);
  }
  return std::make_pair(prefix, p);
}

/// Ordered the way every FlowQL row list is: weight descending, then key.
bool row_before(const std::pair<flow::FlowKey, double>& a,
                const std::pair<flow::FlowKey, double>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

void expect_rows_equal(const Answer& a,
                       std::vector<std::pair<flow::FlowKey, double>> exact,
                       const std::string& what, CheckLog& log) {
  log.expect(a.rows.size() == exact.size(),
             what + ": " + std::to_string(a.rows.size()) + " rows, exact " +
                 std::to_string(exact.size()));
  const std::size_t n = std::min(a.rows.size(), exact.size());
  for (std::size_t i = 0; i < n; ++i) {
    log.expect(a.rows[i].key == exact[i].first &&
                   same_weight(a.rows[i].score, exact[i].second),
               what + ": row " + std::to_string(i) + " is " +
                   a.rows[i].key_text + " " + fmt(a.rows[i].score) +
                   ", exact " + exact[i].first.to_string() + " " +
                   fmt(exact[i].second));
  }
}

void expect_non_increasing(const Answer& a, const std::string& what,
                           CheckLog& log) {
  for (std::size_t i = 1; i < a.rows.size(); ++i) {
    log.expect(a.rows[i].score <= a.rows[i - 1].score,
               what + ": row " + std::to_string(i) + " out of order");
  }
}

void expect_bounded(const Answer& a, const Selection& s, const std::string& what,
                    CheckLog& log) {
  for (const Row& row : a.rows) {
    const double exact = s.weight(row.key);
    log.expect(at_most(row.score, exact), what + ": " + row.key_text + " " +
                                              fmt(row.score) +
                                              " exceeds exact " + fmt(exact));
  }
}

}  // namespace

// --- parsing -------------------------------------------------------------------

std::optional<flow::FlowKey> parse_key(const std::string& text) {
  try {
    std::istringstream in(text);
    std::string proto, src, dst, extra;
    if (!(in >> proto >> src >> dst) || (in >> extra)) return std::nullopt;
    if (proto.rfind("proto=", 0) != 0 || src.rfind("src=", 0) != 0 ||
        dst.rfind("dst=", 0) != 0) {
      return std::nullopt;
    }
    flow::FlowKey key;
    const std::string p = proto.substr(6);
    if (p != "*") {
      const unsigned long v = std::stoul(p);
      if (v > 255) return std::nullopt;
      key.with_proto(static_cast<std::uint8_t>(v));
    }
    const auto s = parse_endpoint(src.substr(4));
    const auto d = parse_endpoint(dst.substr(4));
    if (!s || !d) return std::nullopt;
    key.with_src(s->first);
    if (s->second) key.with_src_port(*s->second);
    key.with_dst(d->first);
    if (d->second) key.with_dst_port(*d->second);
    if (key.to_string() != text) return std::nullopt;  // round-trip guard
    return key;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<Answer> parse_answer(const std::string& text, std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<Answer> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.size() < 2) return fail("fewer than two lines");
  const std::string& header = lines[0];
  if (lines[1].find_first_not_of('-') != std::string::npos) {
    return fail("no header rule");
  }
  // Columns are left-aligned at fixed offsets: each header name starts one.
  Answer answer;
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < header.size();) {
    if (header[i] == ' ') {
      ++i;
      continue;
    }
    const std::size_t end = header.find(' ', i);
    starts.push_back(i);
    answer.columns.push_back(header.substr(i, end == std::string::npos
                                                  ? std::string::npos
                                                  : end - i));
    i = end == std::string::npos ? header.size() : end;
  }
  const auto col = [&](const char* name) -> std::optional<std::size_t> {
    for (std::size_t c = 0; c < answer.columns.size(); ++c) {
      if (answer.columns[c] == name) return c;
    }
    return std::nullopt;
  };
  const auto flow_col = col("flow");
  const auto score_col = col("score");
  if (!flow_col || !score_col) return fail("no flow/score columns");
  for (std::size_t l = 2; l < lines.size(); ++l) {
    const std::string& line = lines[l];
    const auto cell = [&](std::size_t c) {
      if (starts[c] >= line.size()) return std::string{};
      const std::size_t end =
          c + 1 < starts.size() ? starts[c + 1] : std::string::npos;
      return trim(line.substr(starts[c], end == std::string::npos
                                             ? std::string::npos
                                             : end - starts[c]));
    };
    Row row;
    row.key_text = cell(*flow_col);
    const auto key = parse_key(row.key_text);
    if (!key) return fail("unparseable flow '" + row.key_text + "'");
    row.key = *key;
    try {
      std::size_t used = 0;
      const std::string score = cell(*score_col);
      row.score = std::stod(score, &used);
      if (used != score.size()) return fail("bad score '" + score + "'");
    } catch (const std::exception&) {
      return fail("bad score on line " + std::to_string(l));
    }
    answer.rows.push_back(std::move(row));
  }
  return answer;
}

// --- exact reference ---------------------------------------------------------------

void ExactSummary::add(const flow::FlowKey& leaf, double weight) {
  own_[leaf] += weight;
  total_ += weight;
  std::optional<flow::FlowKey> node = leaf;
  while (node) {
    subtree_[*node] += weight;
    node = node->parent();
  }
}

double ExactSummary::subtree(const flow::FlowKey& key) const {
  const auto it = subtree_.find(key);
  return it == subtree_.end() ? 0.0 : it->second;
}

double Selection::total() const {
  double sum = 0.0;
  for (const ExactSummary* p : parts) sum += p->total();
  return sum;
}

double Selection::weight(const flow::FlowKey& key) const {
  double sum = 0.0;
  for (const ExactSummary* p : parts) sum += p->subtree(key);
  return sum;
}

bool Selection::uncompressed() const {
  std::size_t sum = 0;
  for (const ExactSummary* p : parts) {
    if (p->nodes() > summary_high_water) return false;
    sum += p->nodes();
  }
  if (sum <= merge_high_water) return true;
  if (sum > 8 * merge_high_water) return false;  // the union cannot fit
  std::unordered_set<flow::FlowKey> keys;
  for (const ExactSummary* p : parts) {
    for (const auto& [key, w] : p->subtree_map()) keys.insert(key);
  }
  return keys.size() <= merge_high_water;
}

std::unordered_map<flow::FlowKey, double> Selection::own() const {
  std::unordered_map<flow::FlowKey, double> out;
  for (const ExactSummary* p : parts) {
    for (const auto& [key, w] : p->own_map()) out[key] += w;
  }
  return out;
}

std::unordered_map<flow::FlowKey, double> Selection::children(
    const flow::FlowKey& key) const {
  std::unordered_map<flow::FlowKey, double> out;
  for (const ExactSummary* p : parts) {
    for (const auto& [node, w] : p->subtree_map()) {
      const auto parent = node.parent();
      if (parent && *parent == key) out[node] += w;
    }
  }
  return out;
}

bool same_weight(double answer, double exact) {
  return std::fabs(answer - exact) <= 1e-5 * std::fabs(exact) + 1e-9;
}

bool at_most(double answer, double exact) {
  return answer <= exact + 1e-5 * std::fabs(exact) + 1e-9;
}

// --- operators -------------------------------------------------------------------------

void query(const Answer& a, const flow::FlowKey& key, const Selection& s,
           const std::string& what, CheckLog& log) {
  log.expect(a.rows.size() == 1, what + ": expected one row");
  if (a.rows.size() != 1) return;
  const double exact = key.is_root() ? s.total() : s.weight(key);
  if (key.is_root() || s.uncompressed()) {
    log.expect(same_weight(a.rows[0].score, exact),
               what + ": " + fmt(a.rows[0].score) + " != exact " + fmt(exact));
  } else {
    log.expect(at_most(a.rows[0].score, exact),
               what + ": " + fmt(a.rows[0].score) + " exceeds exact " +
                   fmt(exact));
  }
}

void drilldown(const Answer& a, const flow::FlowKey& key, const Selection& s,
               const std::string& what, CheckLog& log) {
  expect_non_increasing(a, what, log);
  expect_bounded(a, s, what, log);
  double sum = 0.0;
  for (const Row& row : a.rows) {
    sum += row.score;
    const auto parent = row.key.parent();
    log.expect(parent && *parent == key,
               what + ": " + row.key_text + " is not a child");
  }
  const double exact = key.is_root() ? s.total() : s.weight(key);
  log.expect(at_most(sum, exact),
             what + ": children sum " + fmt(sum) + " exceeds " + fmt(exact));
  if (!s.uncompressed()) return;
  const auto children = s.children(key);
  std::vector<std::pair<flow::FlowKey, double>> rows(children.begin(),
                                                     children.end());
  std::sort(rows.begin(), rows.end(), row_before);
  expect_rows_equal(a, std::move(rows), what + " (exact)", log);
}

void topk(const Answer& a, std::size_t k, const Selection& s,
          const std::string& what, CheckLog& log) {
  log.expect(a.rows.size() <= k, what + ": more than k rows");
  expect_non_increasing(a, what, log);
  expect_bounded(a, s, what, log);
  if (!s.uncompressed()) return;
  const auto own = s.own();
  std::vector<std::pair<flow::FlowKey, double>> rows(own.begin(), own.end());
  std::sort(rows.begin(), rows.end(), row_before);
  if (rows.size() > k) rows.resize(k);
  expect_rows_equal(a, std::move(rows), what + " (exact)", log);
}

void above(const Answer& a, double x, const Selection& s,
           const std::string& what, CheckLog& log) {
  expect_non_increasing(a, what, log);
  expect_bounded(a, s, what, log);
  for (const Row& row : a.rows) {
    log.expect(row.score >= x * (1 - 1e-5),
               what + ": " + row.key_text + " below the threshold");
  }
  if (!s.uncompressed()) return;
  std::vector<std::pair<flow::FlowKey, double>> rows;
  for (const auto& [key, w] : s.own()) {
    if (w >= x) rows.emplace_back(key, w);
  }
  std::sort(rows.begin(), rows.end(), row_before);
  expect_rows_equal(a, std::move(rows), what + " (exact)", log);
}

void hhh(const Answer& a, const Selection& s, const std::string& what,
         CheckLog& log) {
  expect_bounded(a, s, what, log);
}

void diff(const Answer& a, std::size_t k, const Selection& left,
          const Selection& right, const std::string& what, CheckLog& log) {
  log.expect(a.rows.size() <= k, what + ": more than k rows");
  for (std::size_t i = 1; i < a.rows.size(); ++i) {
    log.expect(std::fabs(a.rows[i].score) <= std::fabs(a.rows[i - 1].score),
               what + ": row " + std::to_string(i) + " out of order");
  }
  for (const Row& row : a.rows) {
    const double hi = left.weight(row.key);
    const double lo = right.weight(row.key);
    log.expect(at_most(row.score, hi) && at_most(-row.score, lo),
               what + ": " + row.key_text + " " + fmt(row.score) +
                   " outside [-" + fmt(lo) + ", " + fmt(hi) + "]");
  }
  Selection both = left;
  both.parts.insert(both.parts.end(), right.parts.begin(), right.parts.end());
  if (!both.uncompressed()) return;
  auto own = left.own();
  for (const auto& [key, w] : right.own()) own[key] -= w;
  std::vector<std::pair<flow::FlowKey, double>> rows;
  for (const auto& [key, w] : own) {
    if (w != 0.0) rows.emplace_back(key, w);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    if (std::fabs(x.second) != std::fabs(y.second)) {
      return std::fabs(x.second) > std::fabs(y.second);
    }
    if (x.second != y.second) return x.second > y.second;
    return x.first < y.first;
  });
  if (rows.size() > k) rows.resize(k);
  expect_rows_equal(a, std::move(rows), what + " (exact)", log);
}

}  // namespace perfbench::check
