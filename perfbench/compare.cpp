// perfbench_compare: the bench-diff.  Reads two result sets and the
// bounds in BENCHMARK.json, all with the repo's strict JSON reader, and
// prints per workload x metric the median and quartiles of each set and
// a verdict.
//
//   perfbench_compare [--bench BENCHMARK.json] <old-dir> <new-dir>
//
// A result set is a directory holding <workload>.jsonl: one run's result
// line (the last line perfbench prints) per line.  Exit status 1 when an
// end-to-end metric of any workload regressed by more than its bound,
// when a workload's share of failed operations grew, or when a new run
// reported wrong outputs; 2 on unreadable input.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace/json_read.hpp"

namespace json = bgq::trace::json;
using perfbench::quantile;

namespace {

struct MetricSpec {
  bool lower_better = true;
  double bound = -1;  ///< < 0: per-layer metric, no verdict
};

struct Set {
  std::map<std::string, std::vector<double>> values;
  std::uint64_t attempted = 0, failed = 0, runs = 0, wrong = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

Set read_set(const std::string& dir, const std::string& workload) {
  Set s;
  std::istringstream lines(slurp(dir + "/" + workload + ".jsonl"));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const json::ValuePtr v = json::parse(line);
    ++s.runs;
    s.attempted += v->u64("attempted");
    s.failed += v->u64("failed");
    if (v->at("correct").type != json::Value::Type::kBool) {
      throw std::runtime_error("correct is not a bool");
    }
    if (!v->at("correct").b) ++s.wrong;
    for (const auto& [name, m] : v->at("metrics").obj) {
      if (!m->at("value").is_number()) {
        throw std::runtime_error("metric " + name + " has no number");
      }
      s.values[name].push_back(m->at("value").num);
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench = "BENCHMARK.json";
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--bench" && i + 1 < argc) {
      bench = argv[++i];
    } else {
      dirs.push_back(a);
    }
  }
  if (dirs.size() != 2) {
    std::fprintf(stderr, "usage: perfbench_compare [--bench BENCHMARK.json] "
                         "<old-dir> <new-dir>\n");
    return 2;
  }

  int rc = 0;
  try {
    const json::ValuePtr b = json::parse(slurp(bench));
    std::map<std::string, MetricSpec> specs;
    for (const char* group : {"end_to_end", "per_layer"}) {
      for (const json::ValuePtr& m : b->at(group).arr) {
        MetricSpec s;
        s.lower_better = m->at("better").str == "lower";
        if (m->get("bound") != nullptr) s.bound = m->at("bound").num;
        specs[m->at("name").str] = s;
      }
    }
    for (const json::ValuePtr& w : b->at("workloads").arr) {
      const std::string wl = w->at("name").str;
      Set olds, news;
      try {
        olds = read_set(dirs[0], wl);
        news = read_set(dirs[1], wl);
      } catch (const std::runtime_error& e) {
        std::printf("%s: skipped (%s)\n", wl.c_str(), e.what());
        continue;
      }
      std::printf("== %s: %llu vs %llu runs ==\n", wl.c_str(),
                  static_cast<unsigned long long>(olds.runs),
                  static_cast<unsigned long long>(news.runs));
      std::printf("%-34s %10s %23s %10s %23s %8s  %s\n", "metric", "old",
                  "[q1, q3]", "new", "[q1, q3]", "change", "verdict");
      for (const auto& [name, spec] : specs) {
        const auto o = olds.values.find(name);
        const auto n = news.values.find(name);
        if (o == olds.values.end() || n == news.values.end()) continue;
        const double om = quantile(o->second, 0.5);
        const double nm = quantile(n->second, 0.5);
        const double change = om != 0 ? (nm - om) / std::abs(om) : 0.0;
        const double worse = spec.lower_better ? change : -change;
        std::string verdict = "-";
        if (spec.bound >= 0) {
          const double spread = [&](const std::vector<double>& v) {
            const double m = quantile(v, 0.5);
            return m != 0 ? (quantile(v, 0.75) - quantile(v, 0.25)) /
                                std::abs(m)
                          : 0.0;
          }(o->second);
          if (worse > spec.bound) {
            verdict = "REGRESSION";
            rc = 1;
          } else if (spread > spec.bound) {
            verdict = "unresolved";
          } else if (-worse > spread) {
            verdict = "better";
          } else {
            verdict = "same";
          }
        }
        std::printf("%-34s %10.4g [%10.4g, %10.4g] %10.4g [%10.4g, %10.4g] "
                    "%+7.1f%%  %s\n",
                    name.c_str(), om, quantile(o->second, 0.25),
                    quantile(o->second, 0.75), nm, quantile(n->second, 0.25),
                    quantile(n->second, 0.75), change * 100, verdict.c_str());
      }
      const auto share = [](const Set& s) {
        return s.attempted ? static_cast<double>(s.failed) /
                                 static_cast<double>(s.attempted)
                           : 0.0;
      };
      std::printf("failed share: old %.6g (%llu/%llu), new %.6g (%llu/%llu)"
                  "; runs with wrong outputs: old %llu, new %llu\n\n",
                  share(olds), static_cast<unsigned long long>(olds.failed),
                  static_cast<unsigned long long>(olds.attempted),
                  share(news), static_cast<unsigned long long>(news.failed),
                  static_cast<unsigned long long>(news.attempted),
                  static_cast<unsigned long long>(olds.wrong),
                  static_cast<unsigned long long>(news.wrong));
      if (share(news) > share(olds) || news.wrong > 0) rc = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_compare: %s\n", e.what());
    return 2;
  }
  return rc;
}
