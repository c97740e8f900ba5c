// Source-tree model for the determinism linter: which module a file belongs
// to, and which files can feed bytes into run artifacts.
//
// Rules R1/R3/R5 (DESIGN.md section 12) are scoped by module: wall-clock
// reads are legal in prof/ but nowhere else, unordered-container
// iteration is illegal anywhere that can influence metrics.json /
// counters.jsonl / snapshots. Path prefixes alone under-approximate that
// set — workload/background.hpp is not in an artifact directory, yet the
// network includes it and replays its traffic straight into the counters. So
// classification is include-graph-aware: the artifact-feeding set is the
// transitive closure of quoted includes starting from the artifact modules
// (sim, net, routing, obs, metrics, ckpt), plus every .cpp whose same-stem
// header lands in that closure (the implementation of an included header runs
// on the artifact path even though nobody includes the .cpp itself).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace dfly::lint {

/// One scanned translation-unit fragment (header or source file).
struct SourceFile {
  std::string rel;     ///< path relative to the scan root, e.g. "sim/engine.cpp"
  std::string module;  ///< first directory component ("sim"), "" if top-level
  std::vector<Token> tokens;
  std::vector<std::string> includes;  ///< quoted-include targets, as written
};

/// First path component of `rel` ("sim/engine.cpp" -> "sim").
std::string module_of(const std::string& rel);

/// The modules whose state reaches run artifacts (metrics.json,
/// counters.jsonl, heatmap.csv, trace.json, snapshots).
bool is_artifact_module(const std::string& module);

/// Modules with a legitimate need for wall-clock time: only the profiler,
/// which measures it. It may not leak it into simulation state (that is what
/// the differential artifact tests pin).
bool is_wallclock_module(const std::string& module);

/// Parses `#include "..."` targets out of a token stream (Pp tokens).
std::vector<std::string> quoted_includes(const std::vector<Token>& tokens);

/// Returns the rels of every file that can feed artifact bytes: artifact
/// modules, their transitive quoted includes, and same-stem implementations
/// of any header in the closure. `files` is keyed by rel.
std::set<std::string> artifact_feeding_set(const std::map<std::string, SourceFile>& files);

}  // namespace dfly::lint
