#include "common/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace emergence {

double parse_real_option(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    throw PreconditionError("option '" + key + "=" + value +
                            "': not a number");
  }
  return parsed;
}

std::size_t parse_size_option(const std::string& key,
                              const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      value.find('-') != std::string::npos) {
    throw PreconditionError("option '" + key + "=" + value +
                            "': not a non-negative integer");
  }
  return static_cast<std::size_t>(parsed);
}

std::uint64_t parse_u64_option(const std::string& key,
                               const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 0);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      value.find('-') != std::string::npos) {
    throw PreconditionError("option '" + key + "=" + value +
                            "': not a 64-bit value");
  }
  return parsed;
}

bool parse_bool_option(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on")
    return true;
  if (value == "false" || value == "0" || value == "no" || value == "off")
    return false;
  throw PreconditionError("option '" + key + "=" + value +
                          "': expected a boolean (true/false)");
}

OptionTable& OptionTable::add(std::string name, std::string value_hint,
                              std::string help, Apply apply) {
  require(!name.empty(), "OptionTable: empty option name");
  require(find(name) == nullptr,
          "OptionTable: duplicate option '" + name + "'");
  entries_.push_back(
      Entry{std::move(name), std::move(value_hint), std::move(help),
            std::move(apply), false});
  return *this;
}

OptionTable& OptionTable::add_size(std::string name, std::string help,
                                   std::size_t* out) {
  const std::string key = name;
  return add(std::move(name), "N", std::move(help),
             [key, out](const std::string& v) {
               *out = parse_size_option(key, v);
             });
}

OptionTable& OptionTable::add_real(std::string name, std::string help,
                                   double* out) {
  const std::string key = name;
  return add(std::move(name), "X", std::move(help),
             [key, out](const std::string& v) {
               *out = parse_real_option(key, v);
             });
}

OptionTable& OptionTable::add_u64(std::string name, std::string help,
                                  std::uint64_t* out) {
  const std::string key = name;
  return add(std::move(name), "N", std::move(help),
             [key, out](const std::string& v) {
               *out = parse_u64_option(key, v);
             });
}

OptionTable& OptionTable::add_string(std::string name, std::string value_hint,
                                     std::string help, std::string* out) {
  return add(std::move(name), std::move(value_hint), std::move(help),
             [out](const std::string& v) { *out = v; });
}

OptionTable& OptionTable::add_flag(std::string name, std::string help,
                                   bool* out) {
  const std::string key = name;
  add(std::move(name), "", std::move(help),
      [key, out](const std::string& v) {
        *out = v.empty() ? true : parse_bool_option(key, v);
      });
  entries_.back().is_flag = true;
  return *this;
}

OptionTable& OptionTable::add_choice(
    std::string name, std::string help,
    std::vector<std::pair<std::string, std::function<void()>>> choices) {
  std::string hint;
  std::string expected;  // "a, b or c" prose for diagnostics
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (!hint.empty()) hint += "|";
    hint += choices[i].first;
    if (i > 0) expected += (i + 1 == choices.size()) ? " or " : ", ";
    expected += choices[i].first;
  }
  const std::string key = name;
  return add(std::move(name), std::move(hint), std::move(help),
             [key, expected, choices = std::move(choices)](
                 const std::string& v) {
               for (const auto& [spelling, setter] : choices) {
                 if (v == spelling) {
                   setter();
                   return;
                 }
               }
               throw PreconditionError("option '" + key + "=" + v +
                                       "': expected " + expected);
             });
}

const OptionTable::Entry* OptionTable::find(const std::string& key) const {
  for (const Entry& e : entries_) {
    if (e.name == key) return &e;
  }
  return nullptr;
}

bool OptionTable::contains(const std::string& key) const {
  return find(key) != nullptr;
}

std::string OptionTable::known_keys() const {
  std::string known;
  for (const Entry& e : entries_) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  return known;
}

void OptionTable::apply(const std::string& key, const std::string& value,
                        const std::string& context) const {
  const Entry* entry = find(key);
  if (entry == nullptr) {
    throw PreconditionError("unknown " + context + " key '" + key +
                            "' (known: " + known_keys() + ")");
  }
  entry->apply(value);
}

std::vector<std::string> OptionTable::parse_cli(int argc,
                                                const char* const* argv,
                                                int first) const {
  std::vector<std::string> positional;
  bool flags_done = false;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags_done || arg.size() < 2 || arg[0] != '-' || arg[1] != '-') {
      positional.push_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const std::string key = body.substr(0, eq);
    const Entry* entry = find(key);
    if (entry == nullptr) {
      throw PreconditionError("unknown flag '--" + key +
                              "' (known: " + known_keys() + ")");
    }
    if (eq == std::string::npos) {
      require(entry->is_flag,
              "flag '--" + key + "' needs a value (--" + key + "=" +
                  entry->value_hint + ")");
      entry->apply("");
    } else {
      entry->apply(body.substr(eq + 1));
    }
  }
  return positional;
}

std::string OptionTable::help(const std::string& prefix) const {
  std::size_t width = 0;
  std::vector<std::string> lefts;
  lefts.reserve(entries_.size());
  for (const Entry& e : entries_) {
    std::string left = prefix + e.name;
    if (!e.value_hint.empty()) left += "=" + e.value_hint;
    width = std::max(width, left.size());
    lefts.push_back(std::move(left));
  }
  std::string out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out += "  " + lefts[i];
    out.append(width - lefts[i].size() + 2, ' ');
    out += entries_[i].help;
    out += "\n";
  }
  return out;
}

}  // namespace emergence
