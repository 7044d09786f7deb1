// Declarative option tables (DESIGN.md §10).
//
// An options struct is described once, as a table with one row per field:
// the field's name, an accessor for the member, its limits (range, display
// unit or allowed names) and help text. Defaults are not in the table; they
// are whatever the default-constructed struct holds. From the table come the
// command-line flags, the scenario keys, the capture config blob, usage text,
// range validation and the snapshot fingerprint. The name is the scenario and
// blob key; the flag is the name with '-' for '_'.
//
// Parsing is strict: a number must span its whole string (std::from_chars),
// a name must be one of the allowed ones, and a value must lie in range.
// Formatting is exact: parsing a formatted value gives back the same value,
// so the formatted table is both the capture blob and the fingerprint input.

#ifndef FRAGVISOR_SRC_SIM_OPTIONS_H_
#define FRAGVISOR_SRC_SIM_OPTIONS_H_

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/sim/snapshot.h"

namespace fragvisor {

// What a field accepts: a stored value in [lo, hi], shown in units of
// `unit` stored units (1e6 shows a TimeNs in ms, 1 << 30 bytes in GiB), or
// one of the '|'-separated `choices` (an enum field stores its name's index).
struct OptionLimits {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  double unit = 1;
  const char* choices = nullptr;
};

constexpr OptionLimits Between(double lo, double hi) { return {.lo = lo, .hi = hi}; }
constexpr OptionLimits AtLeast(double lo, double unit = 1) { return {.lo = lo, .unit = unit}; }
constexpr OptionLimits OneOf(const char* choices) { return {.choices = choices}; }

// The pieces of `text` between `sep`s, empty ones included.
std::vector<std::string_view> Split(std::string_view text, char sep);

// Parses and formats one C++ type. `parse` stores the value and returns "",
// or returns why `text` is refused, without the field's name.
struct OptionCodec {
  const char* metavar;  // usage placeholder; empty for a bool or an enum
  std::string (*parse)(std::string_view text, const OptionLimits& limits, void* out);
  std::string (*format)(const void* value, const OptionLimits& limits);
};

// The codec of each stored type, found by overload on a typed null pointer.
const OptionCodec* CodecOf(const bool*);
const OptionCodec* CodecOf(const int*);
const OptionCodec* CodecOf(const int64_t*);
const OptionCodec* CodecOf(const uint64_t*);
const OptionCodec* CodecOf(const double*);
const OptionCodec* CodecOf(const std::string*);
const OptionCodec* EnumCodec();  // one-byte enums, stored as their name's index
template <typename E>
  requires std::is_enum_v<E> && (sizeof(E) == 1)
const OptionCodec* CodecOf(const E*) {
  return EnumCodec();
}

// Fault schedules: comma-separated "n@t" entries (arity 2) or "a-b@t-t"
// entries (arity 4, a cut of link a-b over [t, t)). Node ids are
// non-negative integers, times non-negative decimals in display units,
// rounded to the nearest stored unit.
using ScheduleEntry = std::array<int64_t, 4>;
std::string ParseSchedule(std::string_view text, int arity, const OptionLimits& limits,
                          std::vector<ScheduleEntry>* out);

// For a vector of {node, at} or of {a, b, from, until}.
template <typename E>
const OptionCodec* CodecOf(const std::vector<E>*) {
  constexpr bool kLink = requires(E e) { e.until; };
  struct Impl {
    static std::string Parse(std::string_view text, const OptionLimits& limits, void* out) {
      std::vector<ScheduleEntry> entries;
      std::string error = ParseSchedule(text, kLink ? 4 : 2, limits, &entries);
      if (!error.empty()) return error;
      std::vector<E>& list = *static_cast<std::vector<E>*>(out);
      list.clear();
      for (const ScheduleEntry& s : entries) {
        if constexpr (kLink) {
          list.push_back({static_cast<int>(s[0]), static_cast<int>(s[1]), s[2], s[3]});
        } else {
          list.push_back({static_cast<int>(s[0]), s[1]});
        }
      }
      return "";
    }
    static std::string Format(const void* value, const OptionLimits& limits) {
      const auto time = [&limits](const int64_t& t) { return CodecOf(&t)->format(&t, limits); };
      std::string out;
      for (const E& e : *static_cast<const std::vector<E>*>(value)) {
        out += out.empty() ? "" : ",";
        if constexpr (kLink) {
          out += std::to_string(e.a) + "-" + std::to_string(e.b) + "@" + time(e.from) + "-" +
                 time(e.until);
        } else {
          out += std::to_string(e.node) + "@" + time(e.at);
        }
      }
      return out;
    }
  };
  static const OptionCodec codec = {kLink ? "a-b@t-t,..." : "n@t,...", &Impl::Parse,
                                    &Impl::Format};
  return &codec;
}

template <typename T>
const OptionCodec* CodecFor() {
  return CodecOf(static_cast<const T*>(nullptr));
}

// Keys and their raw values, read through strict typed getters. Every read
// marks its key used, so a caller can refuse keys nothing read (typos). The
// first bad value latches an error naming the key as the user wrote it.
class KeyValues {
 public:
  // kFlags: keys are command-line flags, spelled with '-' for each '_' of a
  // name. kKeys: keys are names (scenario files, capture blobs).
  enum class Style { kFlags, kKeys };
  explicit KeyValues(Style style = Style::kKeys) : style_(style) {}

  // Parsers; a malformed input latches an error. Argv: "--k v", "--k=v"
  // and a bare "--k" (value "1"); a value never starts with '-', so write
  // "--k=-1".
  void AddArgs(int argc, char** argv);
  // One "k=v" per line; blank lines are skipped.
  void AddLines(std::string_view text);
  // One flat JSON object of scalars: string keys; string, number or
  // true/false values. Nesting, arrays and null are refused, so scenario
  // files stay greppable and diffable.
  void AddFlatJson(std::string_view text);

  // Parses `name`'s value into *out when present; *out is untouched when
  // the key is absent or its value is refused.
  void Read(std::string_view name, const OptionCodec& codec, const OptionLimits& limits,
            void* out);
  template <typename T>
  T Get(std::string_view name, T fallback, const OptionLimits& limits = {}) {
    Read(name, *CodecFor<T>(), limits, &fallback);
    return fallback;
  }
  std::string Str(std::string_view name, const std::string& fallback = "") {
    return Get<std::string>(name, fallback);
  }

  // Call once every key has been read: latches an error for the first key
  // nothing read, then `invalid` (say, a Validate() message). Returns ok().
  bool Finish(const std::string& invalid = "");
  // Latches `message` prefixed by how the user spelled `name`.
  void Fail(std::string_view name, const std::string& message);
  // Latches a non-empty `message` as is; the first error wins.
  void Fail(const std::string& message);
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  std::string Key(std::string_view name) const;
  std::string Spell(const std::string& key) const;  // "--key" or "key 'key'"
  void Add(std::string key, std::string value);

  Style style_;
  std::map<std::string, std::string> kv_;
  std::set<std::string> used_;
  std::string error_;
};

// One table row. `member` returns the field inside a struct.
template <typename Opts>
struct OptionField {
  const char* name;
  const char* help;
  OptionLimits limits;
  const OptionCodec* codec;
  void* (*member)(Opts&);

  const void* Of(const Opts& opts) const { return member(const_cast<Opts&>(opts)); }
};

template <typename Opts>
using OptionTable = std::vector<OptionField<Opts>>;

// Builds a row from a captureless lambda returning a reference to the member.
template <typename Opts, typename Ref>
OptionField<Opts> Option(const char* name, Ref, OptionLimits limits, const char* help) {
  using T = std::remove_reference_t<std::invoke_result_t<Ref, Opts&>>;
  return {name, help, limits, CodecFor<T>(), [](Opts& o) -> void* { return &Ref{}(o); }};
}

// Reads every field `kv` names into *opts; a bad value latches kv's error.
template <typename Opts>
void ReadOptions(const OptionTable<Opts>& table, KeyValues& kv, Opts* opts) {
  for (const OptionField<Opts>& f : table) {
    kv.Read(f.name, *f.codec, f.limits, f.member(*opts));
  }
}

// "name=value" per field, one a line, in table order; exact.
template <typename Opts>
std::string FormatOptions(const OptionTable<Opts>& table, const Opts& opts) {
  std::string out;
  for (const OptionField<Opts>& f : table) {
    out += std::string(f.name) + "=" + f.codec->format(f.Of(opts), f.limits) + "\n";
  }
  return out;
}

// Snapshot config fingerprint: every field of the table, hashed exactly.
template <typename Opts>
uint64_t OptionsFingerprint(std::string_view tag, const OptionTable<Opts>& table,
                            const Opts& opts) {
  return SnapshotHashString(std::string(tag) + "\n" + FormatOptions(table, opts));
}

// "name: why" for the first field outside its limits, or "". Parsing a
// field's exact text applies the same checks as parsing its key.
template <typename Opts>
std::string CheckOptions(const OptionTable<Opts>& table, const Opts& opts) {
  Opts scratch = opts;
  for (const OptionField<Opts>& f : table) {
    const std::string error =
        f.codec->parse(f.codec->format(f.Of(opts), f.limits), f.limits, f.member(scratch));
    if (!error.empty()) return std::string(f.name) + ": " + error;
  }
  return "";
}

std::string OptionUsageLine(const char* name, const char* help, const OptionLimits& limits,
                            const OptionCodec& codec, const std::string& fallback);

// One usage line per field, flags spelled, defaults from a default `Opts`.
template <typename Opts>
std::string OptionsUsage(const OptionTable<Opts>& table) {
  const Opts defaults{};
  std::string out;
  for (const OptionField<Opts>& f : table) {
    out += OptionUsageLine(f.name, f.help, f.limits, *f.codec,
                           f.codec->format(f.Of(defaults), f.limits));
  }
  return out;
}

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_OPTIONS_H_
