// Minimal command-line flag parsing for the bench harnesses and examples.
// Flags take the forms `--name=value` and `--name value`; bare `--name` is a
// boolean true. Numeric getters refuse values they cannot parse.

#ifndef CNE_UTIL_CLI_H_
#define CNE_UTIL_CLI_H_

#include <map>
#include <string>
#include <vector>

namespace cne {

/// Parsed command line: `--key=value` flags plus positional arguments.
class CommandLine {
 public:
  CommandLine(int argc, const char* const* argv);

  /// True if the flag was present (with or without a value).
  bool Has(const std::string& name) const;

  /// String value of a flag, or `def` when absent.
  std::string GetString(const std::string& name,
                        const std::string& def = "") const;

  /// Integer value of a flag, or `def` when absent. Throws
  /// std::invalid_argument naming the flag and the value when the value is
  /// empty, has trailing characters ("2x") or is out of range: a typo must
  /// never turn into the default (say, a larger privacy budget).
  long long GetInt(const std::string& name, long long def) const;

  /// Double value of a flag, or `def` when absent; throws like GetInt.
  double GetDouble(const std::string& name, double def) const;

  /// Boolean value: present without value or with "1"/"true" -> true.
  bool GetBool(const std::string& name, bool def = false) const;

  /// Comma-separated list value of a flag.
  std::vector<std::string> GetList(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Splits `s` on `sep`, dropping empty pieces.
std::vector<std::string> SplitString(const std::string& s, char sep);

}  // namespace cne

#endif  // CNE_UTIL_CLI_H_
