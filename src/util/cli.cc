#include "util/cli.h"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace cne {

CommandLine::CommandLine(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      const size_t eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[body] = argv[++i];
      } else {
        flags_[body] = "";
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool CommandLine::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

namespace {

// Parses the whole of `value` with `parse` (strtoll/strtod style); throws
// naming the flag when any of it is left over, it is empty or out of range.
template <typename T, typename Parse>
T ParseNumber(const std::string& name, const std::string& value,
              Parse parse) {
  char* end = nullptr;
  errno = 0;
  const T v = parse(value.c_str(), &end);
  if (value.empty() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": cannot parse '" + value +
                                "' as a number");
  }
  return v;
}

}  // namespace

long long CommandLine::GetInt(const std::string& name, long long def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return ParseNumber<long long>(
      name, it->second,
      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

double CommandLine::GetDouble(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return ParseNumber<double>(name, it->second, std::strtod);
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  return v.empty() || v == "1" || v == "true" || v == "yes";
}

std::vector<std::string> CommandLine::GetList(const std::string& name) const {
  return SplitString(GetString(name), ',');
}

std::vector<std::string> SplitString(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace cne
