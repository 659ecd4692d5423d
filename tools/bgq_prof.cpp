// bgq-prof: Projections-style post-mortem analyzer for bgq-trace-v1
// flat-trace files (written by Machine::write_flat_trace or any bench's
// --trace flag).
//
// Usage:
//   bgq-prof <trace.json>            text report to stdout
//   bgq-prof <trace.json> --json     bgq-prof-v1 JSON to stdout
//   bgq-prof <trace.json> --json out.json --text report.txt
//   bgq-prof <trace.json> --bins 32  time-profile resolution
//
// Reads "-" as stdin.  Exit status is non-zero on unreadable input, a
// malformed/mismatched schema, or a trace with no complete message
// lifecycle (an untraced run analyses to nothing and must not pass for
// a clean one), so CI can smoke-test traces by running it.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "trace/analysis.hpp"
#include "trace/trace_io.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <trace.json|-> [--json [file]] [--text [file]]"
               " [--bins N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  bool want_json = false, want_text = false;
  std::string json_path, text_path;
  unsigned bins = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto optional_path = [&](std::string& out) {
      if (i + 1 < argc && argv[i + 1][0] != '-') out = argv[++i];
    };
    if (arg == "--json") {
      want_json = true;
      optional_path(json_path);
    } else if (arg == "--text") {
      want_text = true;
      optional_path(text_path);
    } else if (arg == "--bins") {
      if (i + 1 >= argc) return usage(argv[0]);
      bins = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (input.empty()) return usage(argv[0]);
  if (!want_json && !want_text) want_text = true;

  std::string text;
  if (input == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::ifstream f(input);
    if (!f) {
      std::cerr << "bgq-prof: cannot open " << input << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    text = ss.str();
  }

  bgq::trace::Analysis analysis;
  try {
    const bgq::trace::FlatTrace flat = bgq::trace::read_flat_trace(text);
    analysis = bgq::trace::analyze(flat, bins);
  } catch (const std::exception& e) {
    std::cerr << "bgq-prof: " << e.what() << "\n";
    return 1;
  }

  auto emit = [&](bool enabled, const std::string& path, auto writer) {
    if (!enabled) return true;
    if (path.empty()) {
      writer(std::cout);
      return true;
    }
    std::ofstream f(path);
    if (!f) {
      std::cerr << "bgq-prof: cannot write " << path << "\n";
      return false;
    }
    writer(f);
    return true;
  };
  const bool ok =
      emit(want_json, json_path,
           [&](std::ostream& os) { bgq::trace::write_prof_json(os, analysis); }) &&
      emit(want_text, text_path,
           [&](std::ostream& os) { bgq::trace::write_prof_text(os, analysis); });
  if (analysis.decomp.messages == 0) {
    std::cerr << "bgq-prof: " << input
              << " holds no complete message lifecycle\n";
    return 1;
  }
  return ok ? 0 : 1;
}
