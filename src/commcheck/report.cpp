#include "commcheck/report.hpp"

#include <algorithm>
#include <utility>

#include "common/json.hpp"

namespace bladed::commcheck {

void Verdict::add(std::string code, std::string message,
                  std::vector<int> ranks) {
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  findings_.push_back(
      {std::move(code), std::move(message), std::move(ranks)});
}

bool Verdict::has(const std::string& code) const {
  return std::any_of(findings_.begin(), findings_.end(),
                     [&](const Finding& f) { return f.code == code; });
}

std::size_t Verdict::count(const std::string& code) const {
  return static_cast<std::size_t>(
      std::count_if(findings_.begin(), findings_.end(),
                    [&](const Finding& f) { return f.code == code; }));
}

std::string Verdict::to_string() const {
  if (findings_.empty()) return "commcheck: clean\n";
  std::string out;
  for (const Finding& f : findings_) {
    out += "finding[" + f.code + "]";
    if (!f.ranks.empty()) {
      out += " ranks=";
      for (std::size_t i = 0; i < f.ranks.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(f.ranks[i]);
      }
    }
    out += ": " + f.message + "\n";
  }
  return out;
}

std::string Verdict::to_json() const {
  Json findings = Json::array();
  for (const Finding& f : findings_) {
    Json ranks = Json::array();
    for (const int r : f.ranks) ranks.push(r);
    Json j = Json::object();
    j.set("code", f.code)
        .set("ranks", std::move(ranks))
        .set("message", f.message);
    findings.push(std::move(j));
  }
  Json doc = Json::object();
  doc.set("clean", findings_.empty()).set("findings", std::move(findings));
  return doc.dump();
}

}  // namespace bladed::commcheck
