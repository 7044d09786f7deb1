#include "src/sim/options.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>

namespace fragvisor {
namespace {

// Concatenates by appending only: GCC 12 at -O3 false-fires -Wrestrict
// (PR105329) on `"literal" + std::string&&`.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string s;
  (s += ... += parts);
  return s;
}

std::string Quote(std::string_view text) { return Cat("'", text, "'"); }

int ChoiceIndex(const OptionLimits& l, std::string_view name) {
  const std::vector<std::string_view> names = Split(l.choices, '|');
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

std::string NotAChoice(std::string_view text, const OptionLimits& l) {
  return Quote(text) + " is not one of " + l.choices;
}

// Strict: the whole of `text`, nothing more, must be one number.
template <typename T>
std::errc ParseWhole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec != std::errc() ? ec : ptr == end ? std::errc() : std::errc::invalid_argument;
}

// Shortest text that parses back to exactly `v`.
std::string FormatReal(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string RangeText(const OptionLimits& l) {
  const auto bound = [&l](double b) { return FormatReal(std::isinf(b) ? b : b / l.unit); };
  return Cat("[", bound(l.lo), ", ", bound(l.hi), "]");
}

std::string InRange(double v, const std::string& shown, const OptionLimits& l) {
  return v >= l.lo && v <= l.hi ? "" : shown + " is out of range " + RangeText(l);
}

// A scaled value is shown as the shortest decimal that parses back to it.
template <typename T>
std::string FormatInt(const void* value, const OptionLimits& l) {
  const T v = *static_cast<const T*>(value);
  return l.unit == 1 ? std::to_string(v) : FormatReal(static_cast<double>(v) / l.unit);
}

// A scaled field takes a decimal in display units, rounded to the nearest
// stored unit; an unscaled one takes an integer only.
template <typename T>
std::string ParseInt(std::string_view text, const OptionLimits& l, void* out) {
  T v{};
  if (l.unit == 1) {
    const std::errc ec = ParseWhole(text, &v);
    if (ec == std::errc::result_out_of_range) return Quote(text) + " is too large";
    if (ec != std::errc()) return Quote(text) + " is not an integer";
  } else {
    double shown = 0;
    if (ParseWhole(text, &shown) != std::errc() || !std::isfinite(shown)) {
      return Quote(text) + " is not a number";
    }
    const double scaled = std::round(shown * l.unit);
    if (!(scaled >= static_cast<double>(std::numeric_limits<T>::min()) &&
          scaled < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
      return Quote(text) + " is too large";
    }
    v = static_cast<T>(scaled);
  }
  std::string error = InRange(static_cast<double>(v), FormatInt<T>(&v, l), l);
  if (error.empty()) *static_cast<T*>(out) = v;
  return error;
}

template <typename T>
const OptionCodec* IntegerCodec() {
  static const OptionCodec codec = {"N", &ParseInt<T>, &FormatInt<T>};
  return &codec;
}

}  // namespace

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  for (size_t pos = 0;;) {
    const size_t end = text.find(sep, pos);
    parts.push_back(text.substr(pos, end - pos));
    if (end == std::string_view::npos) return parts;
    pos = end + 1;
  }
}

const OptionCodec* CodecOf(const int*) { return IntegerCodec<int>(); }
const OptionCodec* CodecOf(const int64_t*) { return IntegerCodec<int64_t>(); }
const OptionCodec* CodecOf(const uint64_t*) { return IntegerCodec<uint64_t>(); }

const OptionCodec* CodecOf(const double*) {
  static const OptionCodec codec = {
      "X",
      [](std::string_view text, const OptionLimits& l, void* out) {
        double v = 0;
        if (ParseWhole(text, &v) != std::errc()) return Quote(text) + " is not a number";
        std::string error = InRange(v, FormatReal(v), l);
        if (error.empty()) *static_cast<double*>(out) = v;
        return error;
      },
      [](const void* value, const OptionLimits&) {
        return FormatReal(*static_cast<const double*>(value));
      }};
  return &codec;
}

const OptionCodec* CodecOf(const bool*) {
  static const OptionCodec codec = {
      "",
      [](std::string_view text, const OptionLimits&, void* out) {
        const bool yes = text == "true" || text == "1";
        if (!yes && text != "false" && text != "0") return Quote(text) + " is not true or false";
        *static_cast<bool*>(out) = yes;
        return std::string();
      },
      [](const void* value, const OptionLimits&) {
        return std::string(*static_cast<const bool*>(value) ? "true" : "false");
      }};
  return &codec;
}

const OptionCodec* EnumCodec() {
  static const OptionCodec codec = {
      "",
      [](std::string_view text, const OptionLimits& l, void* out) {
        const int index = ChoiceIndex(l, text);
        if (index < 0) return NotAChoice(text, l);
        *static_cast<uint8_t*>(out) = static_cast<uint8_t>(index);
        return std::string();
      },
      [](const void* value, const OptionLimits& l) {
        const size_t index = *static_cast<const uint8_t*>(value);
        const std::vector<std::string_view> names = Split(l.choices, '|');
        return index < names.size() ? std::string(names[index]) : std::to_string(index);
      }};
  return &codec;
}

const OptionCodec* CodecOf(const std::string*) {
  static const OptionCodec codec = {
      "S",
      [](std::string_view text, const OptionLimits& l, void* out) {
        if (l.choices != nullptr && ChoiceIndex(l, text) < 0) return NotAChoice(text, l);
        *static_cast<std::string*>(out) = std::string(text);
        return std::string();
      },
      [](const void* value, const OptionLimits&) {
        return *static_cast<const std::string*>(value);
      }};
  return &codec;
}

std::string ParseSchedule(std::string_view text, int arity, const OptionLimits& limits,
                          std::vector<ScheduleEntry>* out) {
  out->clear();
  const int half = arity / 2;
  for (const std::string_view item : text.empty() ? std::vector<std::string_view>{}
                                                   : Split(text, ',')) {
    // Node ids before the '@', times after it; each pair is '-'-separated,
    // so no number can carry a sign.
    const size_t at = item.find('@');
    const std::vector<std::string_view> nodes = Split(item.substr(0, at), '-');
    const std::vector<std::string_view> times =
        Split(at == std::string_view::npos ? "" : item.substr(at + 1), '-');
    bool ok = at != std::string_view::npos && static_cast<int>(nodes.size()) == half &&
              static_cast<int>(times.size()) == half;
    ScheduleEntry e{};
    for (int i = 0; ok && i < half; ++i) {
      int node = 0;
      double shown = 0;
      ok = ParseWhole(nodes[i], &node) == std::errc() &&
           ParseWhole(times[i], &shown) == std::errc() && shown * limits.unit < 0x1p62;
      e[i] = node;
      e[half + i] = static_cast<int64_t>(std::round(shown * limits.unit));
    }
    if (!ok) return Cat("entry ", Quote(item), " is not ", half == 1 ? "n@t" : "a-b@t-t");
    if (half == 2 && (e[0] == e[1] || e[2] >= e[3])) {
      return Cat("entry ", Quote(item), " needs two distinct nodes and from < until");
    }
    out->push_back(e);
  }
  return "";
}

std::string KeyValues::Key(std::string_view name) const {
  std::string key(name);
  if (style_ == Style::kFlags) std::replace(key.begin(), key.end(), '_', '-');
  return key;
}

std::string KeyValues::Spell(const std::string& key) const {
  return style_ == Style::kFlags ? Cat("--", key) : Cat("key ", Quote(key));
}

void KeyValues::Add(std::string key, std::string value) {
  if (!kv_.emplace(key, std::move(value)).second) Fail(Spell(key) + " is given twice");
}

void KeyValues::AddArgs(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      Fail(Cat("unexpected argument ", Quote(arg)));
    } else if (const size_t eq = arg.find('='); eq != std::string::npos) {
      Add(arg.substr(2, eq - 2), arg.substr(eq + 1));
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      Add(arg.substr(2), argv[++i]);
    } else {
      Add(arg.substr(2), "1");
    }
  }
}

void KeyValues::AddLines(std::string_view text) {
  for (const std::string_view line : Split(text, '\n')) {
    const size_t eq = line.find('=');
    if (eq != std::string_view::npos) {
      Add(std::string(line.substr(0, eq)), std::string(line.substr(eq + 1)));
    } else if (!line.empty()) {
      Fail(Cat("malformed line ", Quote(line)));
    }
  }
}

void KeyValues::AddFlatJson(std::string_view text) {
  // Tokens: the punctuation {}:, strings (kept quoted; escapes refused, so
  // keys and names stay plain) and bare scalars.
  std::vector<std::string_view> tokens;
  for (size_t i = 0; i < text.size();) {
    size_t end = i + 1;
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    } else if (text[i] == '"') {
      end = text.find_first_of("\"\\", i + 1);
      if (end == std::string_view::npos || text[end] != '"') {
        return Fail(Cat("unterminated or escaped string at byte ", std::to_string(i)));
      }
      ++end;
    } else if (std::strchr("{}:,", text[i]) == nullptr) {
      end = std::min(text.find_first_of("{}:,\" \t\r\n", i), text.size());
    }
    tokens.push_back(text.substr(i, end - i));
    i = end;
  }
  // { "key" : scalar , ... } — no null, arrays or nesting.
  const auto is = [&tokens](size_t k, std::string_view t) {
    return k < tokens.size() && tokens[k] == t;
  };
  const auto unquote = [](std::string_view t) {
    return std::string(t.front() == '"' ? t.substr(1, t.size() - 2) : t);
  };
  size_t k = 1;
  bool ok = is(0, "{");
  while (ok && !is(k, "}")) {
    const std::string_view value = k + 2 < tokens.size() ? tokens[k + 2] : "";
    ok = !value.empty() && tokens[k].front() == '"' && is(k + 1, ":") && value != "null" &&
         std::strchr("{}:,[", value.front()) == nullptr;
    if (ok) Add(unquote(tokens[k]), unquote(value));
    k += 3;
    if (ok && is(k, ",")) {
      ok = !is(++k, "}");
    } else {
      ok = ok && is(k, "}");
    }
  }
  if (!ok || k + 1 != tokens.size()) {
    Fail(Cat("not a flat JSON object of scalars (at token ", std::to_string(k), ")"));
  }
}

void KeyValues::Read(std::string_view name, const OptionCodec& codec, const OptionLimits& limits,
                     void* out) {
  const auto it = kv_.find(Key(name));
  if (it == kv_.end()) return;
  used_.insert(it->first);
  const std::string error = codec.parse(it->second, limits, out);
  if (!error.empty()) Fail(name, error);
}

bool KeyValues::Finish(const std::string& invalid) {
  for (const auto& [key, value] : kv_) {
    if (used_.count(key) == 0) {
      Fail(Cat("unknown ", style_ == Style::kFlags ? "flag " : "", Spell(key)));
      break;
    }
  }
  Fail(invalid);
  return ok();
}

void KeyValues::Fail(std::string_view name, const std::string& message) {
  Fail(Spell(Key(name)) + ": " + message);
}

void KeyValues::Fail(const std::string& message) {
  if (error_.empty()) error_ = message;
}

std::string OptionUsageLine(const char* name, const char* help, const OptionLimits& limits,
                            const OptionCodec& codec, const std::string& fallback) {
  std::string line = Cat("    --", name);
  std::replace(line.begin(), line.end(), '_', '-');
  const char* metavar = limits.choices != nullptr ? limits.choices : codec.metavar;
  if (*metavar != '\0') line += std::string(" ") + metavar;
  line.resize(std::max<size_t>(line.size() + 1, 34), ' ');
  line += help;
  if (limits.choices == nullptr && (std::isfinite(limits.lo) || std::isfinite(limits.hi))) {
    line += Cat(" ", RangeText(limits));
  }
  return line + " (default " + (fallback.empty() ? "none" : fallback) + ")\n";
}

}  // namespace fragvisor
