// The determinism ruleset (DESIGN.md section 12) evaluated over lexed files.
//
// Rule ids and what they guard:
//   wall-clock     (R1) no wall/monotonic clock reads outside prof/
//   raw-rng        (R2) no C rand()/std:: engines — all randomness via Rng
//   unordered-iter (R3) no iteration over unordered containers in code that
//                       can feed run artifacts (order leaks into bytes)
//   pointer-order  (R4) no pointer used as an ordering or hash key
//   raw-bytes      (R5) reinterpret_cast / memcpy-style raw byte I/O only in
//                       ckpt/snapshot_io and obs/json
//   pod-assert     (R6) every struct in ckpt/ carries a static_assert pinning
//                       its triviality/size, or an explicit exemption
//
// A violation is suppressed only by an annotation on the same line or the
// directly preceding comment line:
//   // dfly-lint: allow(unordered-iter) reason=keys sorted before use
// The reason is mandatory, the annotation is counted and reported in
// lint.json, and an annotation that suppresses nothing is itself a violation
// (stale-allow) — exemptions stay auditable and cannot quietly outlive the
// code they excused. Malformed annotations are bad-annotation violations.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lint/modules.hpp"

namespace dfly::lint {

struct Violation {
  std::string rule;
  std::string file;  ///< rel path
  int line = 0;
  std::string message;
};

struct Exemption {
  std::string rule;
  std::string file;
  int line = 0;  ///< line of the suppressed violation
  std::string reason;
};

struct LintResult {
  int files_scanned = 0;
  std::vector<Violation> violations;  ///< sorted by (file, line, rule)
  std::vector<Exemption> exemptions;  ///< sorted the same way
  bool clean() const { return violations.empty(); }
};

/// Canonical rule id for `name`, accepting the R1..R6 shorthand; returns ""
/// if the name matches no rule.
std::string canonical_rule(const std::string& name);

/// Evaluates every rule over `files` (keyed by rel path) and resolves
/// annotations. Pure: no filesystem access.
LintResult run_rules(const std::map<std::string, SourceFile>& files);

}  // namespace dfly::lint
