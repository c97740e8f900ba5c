#include "lint/modules.hpp"

#include <deque>

namespace dfly::lint {

std::string module_of(const std::string& rel) {
  const std::size_t slash = rel.find('/');
  return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

bool is_artifact_module(const std::string& module) {
  return module == "sim" || module == "net" || module == "routing" || module == "obs" ||
         module == "metrics" || module == "ckpt";
}

bool is_wallclock_module(const std::string& module) { return module == "prof"; }

std::vector<std::string> quoted_includes(const std::vector<Token>& tokens) {
  std::vector<std::string> out;
  for (const Token& t : tokens) {
    if (t.kind != TokKind::Pp) continue;
    // Directive text is the raw line: #include "net/router.hpp"
    std::size_t p = t.text.find("include");
    if (p == std::string::npos) continue;
    p = t.text.find('"', p);
    if (p == std::string::npos) continue;  // <system> include — not ours
    const std::size_t q = t.text.find('"', p + 1);
    if (q == std::string::npos) continue;
    out.push_back(t.text.substr(p + 1, q - p - 1));
  }
  return out;
}

namespace {

/// "workload/background.hpp" -> "workload/background"
std::string stem(const std::string& rel) {
  const std::size_t dot = rel.rfind('.');
  return dot == std::string::npos ? rel : rel.substr(0, dot);
}

bool is_header(const std::string& rel) {
  return rel.size() >= 4 && (rel.ends_with(".hpp") || rel.ends_with(".h"));
}

}  // namespace

std::set<std::string> artifact_feeding_set(const std::map<std::string, SourceFile>& files) {
  std::set<std::string> feeding;
  std::deque<std::string> frontier;
  for (const auto& [rel, file] : files) {
    if (is_artifact_module(file.module) && feeding.insert(rel).second) frontier.push_back(rel);
  }
  while (!frontier.empty()) {
    const std::string rel = frontier.front();
    frontier.pop_front();
    const auto it = files.find(rel);
    if (it == files.end()) continue;
    for (const std::string& inc : it->second.includes) {
      // Quoted includes in this repo are rooted at src/, so the include text
      // is already a rel. Includes pointing outside the scanned set (or
      // system headers) simply don't resolve and are skipped.
      if (files.count(inc) && feeding.insert(inc).second) frontier.push_back(inc);
    }
    // An included header's implementation file runs on the artifact path.
    if (is_header(rel)) {
      for (const char* ext : {".cpp", ".cc"}) {
        const std::string impl = stem(rel) + ext;
        if (files.count(impl) && feeding.insert(impl).second) frontier.push_back(impl);
      }
    }
  }
  return feeding;
}

}  // namespace dfly::lint
