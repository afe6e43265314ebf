#include "src/util/cli.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace pipemare::util {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    // insert_or_assign with prebuilt strings (rather than values_[k] = v on
    // substr results) keeps GCC 12's -O3 -Wrestrict false positive
    // (PR 105329) out of -Werror builds.
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    std::string key = eq == std::string::npos ? body : body.substr(0, eq);
    std::string value = eq == std::string::npos ? std::string("1") : body.substr(eq + 1);
    values_.insert_or_assign(std::move(key), std::move(value));
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// A numeric flag whose value does not parse whole (empty, non-numeric,
/// trailing garbage, out of range) is a usage error: name the flag and
/// exit with status 2, as a command-line tool should, instead of letting
/// std::invalid_argument escape main. std::_Exit, not std::exit: the
/// latter is not thread-safe, and nothing needs unwinding this early.
[[noreturn]] void bad_numeric_flag(const std::string& key, const std::string& value,
                                   const char* expected) {
  std::fprintf(stderr, "error: --%s expects %s, got '%s'\n", key.c_str(), expected,
               value.c_str());
  std::fflush(stdout);
  std::_Exit(2);
}

}  // namespace

int Cli::get_int(const std::string& key, int fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  int v = 0;
  try {
    v = std::stoi(it->second, &used);
  } catch (const std::logic_error&) {  // invalid_argument or out_of_range
    bad_numeric_flag(key, it->second, "an integer");
  }
  if (used != it->second.size()) bad_numeric_flag(key, it->second, "an integer");
  return v;
}

double Cli::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(it->second, &used);
  } catch (const std::logic_error&) {  // invalid_argument or out_of_range
    bad_numeric_flag(key, it->second, "a number");
  }
  if (used != it->second.size()) bad_numeric_flag(key, it->second, "a number");
  return v;
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

void reject_mismatched_flags(const Cli& cli, std::string_view context,
                             std::string_view selected, bool enforce,
                             std::span<const FlagRule> rules) {
  if (!enforce) return;
  for (const FlagRule& rule : rules) {
    if (!cli.has(rule.flag)) continue;
    bool accepted = false;
    for (const std::string& name : rule.accepted_by) {
      if (name == selected) {
        accepted = true;
        break;
      }
    }
    if (!accepted) {
      throw std::invalid_argument(std::string(context) + ": --" + rule.flag +
                                  " " + rule.hint);
    }
  }
}

}  // namespace pipemare::util
