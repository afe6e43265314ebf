#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pipemare::util {

/// Minimal `--key=value` command-line parser for benches and examples.
///
/// Every bench accepts `--quick=1` to shrink workloads for smoke runs and
/// `--seed=<n>` for reproducibility; each binary documents its own extras.
class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric flags: a present value must parse whole (`--epochs=`,
  /// `--lr=fast` or `--epochs=3x` print the flag name to stderr and exit
  /// with status 2).
  int get_int(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// One row of a flag-routing table: `flag` is only meaningful under the
/// listed selections (backend names, batch policies, ...); passing it with
/// any other selection is an error, with `hint` telling the user where the
/// flag belongs.
struct FlagRule {
  std::string flag;                      ///< CLI key, without the leading --
  std::vector<std::string> accepted_by;  ///< selections that honor the flag
  std::string hint;                      ///< appended to the error message
};

/// Rejects (throws std::invalid_argument) any present flag whose rule does
/// not list `selected` — a flag the selected mode cannot honor is an error,
/// never silently dropped. `context` prefixes the message (the parser's
/// name). With `enforce` false the check is skipped entirely: selections
/// outside the table (custom registered backends) own their flags.
void reject_mismatched_flags(const Cli& cli, std::string_view context,
                             std::string_view selected, bool enforce,
                             std::span<const FlagRule> rules);

}  // namespace pipemare::util
