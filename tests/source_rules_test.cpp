// Determinism source rules over src/ (DESIGN.md §12). Simulated results must
// depend only on sim-time and seeded streams, so two cheap textual rules
// guard the library sources:
//   R1  no wall-clock read outside prof/ (the profiler is the one module
//       allowed to time the host; its numbers never reach simulation state);
//   R2  no C rand or std engine anywhere (every draw goes through util/rng).
// Text after `//` is ignored; there is no exemption mechanism. The byte-level
// guards (golden fig3 stdout, artifact digests, differential tests) cover the
// hazards a text scan cannot see.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace {

const std::vector<std::string> kWallClock = {"steady_clock",  "system_clock",  "high_resolution_clock",
                                             "gettimeofday",  "clock_gettime", "time("};
const std::vector<std::string> kRawRng = {"rand(",       "srand",  "random_device",        "mt19937",
                                          "minstd_rand", "ranlux", "default_random_engine"};

bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Returns "path:line: token" for every rule hit in `text`; `rel` is the path
// below src/, which decides whether R1 applies.
std::vector<std::string> scan_source(const std::string& rel, const std::string& text) {
  const bool wall_clock_allowed = rel.rfind("prof/", 0) == 0;
  std::vector<std::string> hits;
  std::istringstream in(text);
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    line = line.substr(0, line.find("//"));
    auto check = [&](const std::vector<std::string>& tokens) {
      for (const std::string& tok : tokens)
        for (auto at = line.find(tok); at != std::string::npos; at = line.find(tok, at + 1))
          if (at == 0 || !ident_char(line[at - 1]))
            hits.push_back(rel + ":" + std::to_string(line_no) + ": " + tok);
    };
    if (!wall_clock_allowed) check(kWallClock);
    check(kRawRng);
  }
  return hits;
}

TEST(SourceRules, LibraryHasNoWallClockReadOrRawRng) {
  namespace fs = std::filesystem;
  const fs::path root = DFLY_SOURCE_DIR;
  int files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const auto ext = entry.path().extension();
    if (ext != ".cpp" && ext != ".hpp") continue;
    ++files;
    std::ifstream f(entry.path());
    const std::string text{std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
    for (const std::string& hit : scan_source(fs::relative(entry.path(), root).generic_string(), text))
      ADD_FAILURE() << hit;
  }
  EXPECT_GT(files, 50) << "scanned too few sources under " << root;
}

TEST(SourceRules, ReportsSeededClockAndRngUses) {
  EXPECT_EQ(scan_source("sim/clock_read.cpp", "auto t = std::chrono::steady_clock::now();\n"),
            std::vector<std::string>{"sim/clock_read.cpp:1: steady_clock"});
  EXPECT_EQ(scan_source("net/draw.cpp", "int x;\nstd::mt19937 gen(7);\n"),
            std::vector<std::string>{"net/draw.cpp:2: mt19937"});
  EXPECT_EQ(scan_source("obs/stamp.cpp", "long t = time(nullptr) + rand();\n").size(), 2u);
  // The profiler may time the host; R2 still applies there.
  EXPECT_TRUE(scan_source("prof/timer.cpp", "auto t = std::chrono::steady_clock::now();\n").empty());
  EXPECT_EQ(scan_source("prof/timer.cpp", "std::random_device rd;\n").size(), 1u);
  // Comments and longer identifiers are not hits.
  EXPECT_TRUE(scan_source("sim/a.cpp", "int x;  // steady_clock, rand()\n").empty());
  EXPECT_TRUE(scan_source("sim/a.cpp", "run_time(x); operand(y); sim_clock_gettime_ns();\n").empty());
}

}  // namespace
