// One key=value configuration surface for the whole repository.
//
// Before this table existed there were three ad-hoc config parsers: the
// scenario override grammar in workload/scenario.cpp (an if/else chain of
// keys), the bench drivers' --flag handling, and the daemon's command line.
// Each kept its own duplicated key list and its own diagnostics. An
// OptionTable replaces all of them: a target struct registers its knobs
// once (name, value hint, help line, typed setter), and the same table then
// serves
//   * scenario strings  — "name:key=value,key=value" overrides,
//   * command lines     — "--key=value" flags (parse_cli),
//   * --help            — a rendered, aligned description of every key.
//
// Diagnostics are validated and uniform: unknown keys list every known key,
// malformed values name the offending token (PreconditionError, as
// everywhere else in the library).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace emergence {

/// A named, documented, validated configuration surface.
class OptionTable {
 public:
  /// Typed setter invoked with the raw value text; throws PreconditionError
  /// (usually via the parse_* helpers below) on malformed input.
  using Apply = std::function<void(const std::string& value)>;

  struct Entry {
    std::string name;
    std::string value_hint;  ///< e.g. "N", "SECONDS", "chord|kademlia"
    std::string help;
    Apply apply;
    bool is_flag = false;  ///< value-less on a command line (--verbose)
  };

  /// Registers a key. Names must be unique; duplicate registration throws.
  OptionTable& add(std::string name, std::string value_hint, std::string help,
                   Apply apply);

  // -- typed conveniences (shared diagnostics) --------------------------------
  OptionTable& add_size(std::string name, std::string help, std::size_t* out);
  OptionTable& add_real(std::string name, std::string help, double* out);
  /// Accepts decimal or 0x-prefixed hex (seeds).
  OptionTable& add_u64(std::string name, std::string help, std::uint64_t* out);
  OptionTable& add_string(std::string name, std::string value_hint,
                          std::string help, std::string* out);
  /// Value-less command-line flag; sets *out = true when present. In
  /// key=value surfaces it accepts explicit true/false.
  OptionTable& add_flag(std::string name, std::string help, bool* out);
  /// Enumerated value: `choices` maps the accepted spellings to setters.
  OptionTable& add_choice(
      std::string name, std::string help,
      std::vector<std::pair<std::string, std::function<void()>>> choices);

  /// Applies one key=value pair; throws PreconditionError with the known-key
  /// list on an unknown key and with the offending token on a bad value.
  /// `context` prefixes diagnostics (e.g. "scenario override").
  void apply(const std::string& key, const std::string& value,
             const std::string& context = "option") const;

  bool contains(const std::string& key) const;
  const std::vector<Entry>& entries() const { return entries_; }
  /// Comma-separated known keys (for diagnostics).
  std::string known_keys() const;

  /// Parses "--key=value" / "--flag" arguments starting at argv[first].
  /// Returns the positional (non --) arguments in order; throws on unknown
  /// or malformed flags. "--" ends flag parsing.
  std::vector<std::string> parse_cli(int argc, const char* const* argv,
                                     int first = 1) const;

  /// Renders the aligned help table, one "  --name=HINT  help" line per
  /// entry (prefix defaults to the command-line form).
  std::string help(const std::string& prefix = "--") const;

 private:
  const Entry* find(const std::string& key) const;

  std::vector<Entry> entries_;
};

// -- shared value parsers (uniform diagnostics; used by the typed helpers
// and by bespoke setters that need them) --------------------------------------
double parse_real_option(const std::string& key, const std::string& value);
std::size_t parse_size_option(const std::string& key, const std::string& value);
/// Decimal or 0x hex, no sign.
std::uint64_t parse_u64_option(const std::string& key,
                               const std::string& value);
bool parse_bool_option(const std::string& key, const std::string& value);

}  // namespace emergence
