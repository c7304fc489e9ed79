//===- tools/twpp_metrics_diff.cpp - Metrics baseline comparator -----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Compares two telemetry exports and fails when a named counter or gauge
// regressed beyond a threshold, turning a committed metrics file (the
// repo's BENCH_metrics.json) into an enforceable baseline instead of a
// dead artifact. One command line, wrapped here:
//
//   twpp_metrics_diff BENCH_metrics.json fresh.jsonl
//       --metric twpp.bytes_out --metric archive.bytes --threshold-pct 5
//
// Both export shapes are accepted on either side: the single-object
// `exportMetricsJson` document (twpp_tool --metrics-out) and the
// JSON-lines `exportMetricsJsonLines` form the bench binaries write (one
// labelled record per metric per checkpoint). Entries are matched on
// (label, name); the single-object form carries an empty label.
//
//   --metric NAME        enforce NAME (repeatable; counters and gauges)
//   --all                enforce every counter/gauge present in both files
//   --threshold-pct P    allowed relative increase, percent (default 5)
//   --list               print every matched entry with its delta
//   --list-metrics       enumerate every baseline key with its baseline and
//                        current value (keys absent from the current file
//                        are marked missing); usable on its own to inspect
//                        what a committed baseline actually gates
//
// Exit codes: 0 no regression, 1 regression, 2 usage or parse error.
//
//===----------------------------------------------------------------------===//

#include "support/CliCommon.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON reader: just enough to walk the two exporter shapes.
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;
  double Number = 0;
  bool Bool = false;
  std::string String;
  std::vector<JsonValue> Array;
  std::vector<std::pair<std::string, JsonValue>> Object;

  const JsonValue *field(const std::string &Name) const {
    for (const auto &[Key, Value] : Object)
      if (Key == Name)
        return &Value;
    return nullptr;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  bool parse(JsonValue &Out) {
    skipSpace();
    if (!value(Out))
      return false;
    skipSpace();
    return Pos == Text.size();
  }

private:
  bool value(JsonValue &Out) {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object(Out);
    case '[':
      return array(Out);
    case '"':
      Out.K = JsonValue::Kind::String;
      return string(Out.String);
    case 't':
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = true;
      return literal("true");
    case 'f':
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = false;
      return literal("false");
    case 'n':
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    default:
      Out.K = JsonValue::Kind::Number;
      return number(Out.Number);
    }
  }

  bool object(JsonValue &Out) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipSpace();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      std::string Key;
      if (!string(Key))
        return false;
      skipSpace();
      if (peek() != ':')
        return false;
      ++Pos;
      skipSpace();
      JsonValue Member;
      if (!value(Member))
        return false;
      Out.Object.emplace_back(std::move(Key), std::move(Member));
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array(JsonValue &Out) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipSpace();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      JsonValue Element;
      if (!value(Element))
        return false;
      Out.Array.push_back(std::move(Element));
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool string(std::string &Out) {
    if (peek() != '"')
      return false;
    ++Pos;
    Out.clear();
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos];
      if (C == '\\') {
        if (++Pos >= Text.size())
          return false;
        char E = Text[Pos];
        switch (E) {
        case '"':
        case '\\':
        case '/':
          Out += E;
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'u': {
          if (Pos + 4 >= Text.size())
            return false;
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I) {
            char H = Text[++Pos];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= static_cast<unsigned>(H - 'A' + 10);
            else
              return false;
          }
          // Exports only escape control bytes, so a one-byte append is
          // enough for round-tripping our own files.
          Out += static_cast<char>(Code & 0xFF);
          break;
        }
        default:
          return false;
        }
      } else {
        Out += C;
      }
      ++Pos;
    }
    if (Pos >= Text.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool number(double &Out) {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            std::strchr("+-.eE", Text[Pos])))
      ++Pos;
    if (Pos == Start)
      return false;
    Out = std::strtod(Text.substr(Start, Pos - Start).c_str(), nullptr);
    return true;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  const std::string &Text;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Export loading: (label, name) -> value for counters and gauges.
//===----------------------------------------------------------------------===//

struct MetricKey {
  std::string Label;
  std::string Name;
  bool operator<(const MetricKey &Other) const {
    return Label != Other.Label ? Label < Other.Label : Name < Other.Name;
  }
};

using MetricTable = std::map<MetricKey, double>;

bool loadSingleObject(const JsonValue &Doc, MetricTable &Out) {
  for (const char *Section : {"counters", "gauges"}) {
    const JsonValue *Map = Doc.field(Section);
    if (!Map || Map->K != JsonValue::Kind::Object)
      return false;
    for (const auto &[Name, Value] : Map->Object) {
      if (Value.K != JsonValue::Kind::Number)
        return false;
      Out[{"", Name}] = Value.Number;
    }
  }
  return true;
}

bool loadJsonLines(const std::string &Text, MetricTable &Out) {
  std::istringstream Stream(Text);
  std::string Line;
  bool Any = false;
  while (std::getline(Stream, Line)) {
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    JsonValue Record;
    if (!JsonParser(Line).parse(Record) ||
        Record.K != JsonValue::Kind::Object)
      return false;
    const JsonValue *Kind = Record.field("kind");
    const JsonValue *Name = Record.field("name");
    const JsonValue *Value = Record.field("value");
    const JsonValue *Label = Record.field("label");
    if (!Kind || !Name)
      return false;
    Any = true;
    if (Kind->String != "counter" && Kind->String != "gauge")
      continue; // histograms/spans carry timing noise, not baselines
    if (!Value || Value->K != JsonValue::Kind::Number)
      return false;
    Out[{Label ? Label->String : "", Name->String}] = Value->Number;
  }
  return Any;
}

bool loadMetricsFile(const std::string &Path, MetricTable &Out) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream) {
    std::fprintf(stderr, "twpp_metrics_diff: cannot read %s\n", Path.c_str());
    return false;
  }
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  std::string Text = Buffer.str();

  // The single-object export is one multi-line document; everything else
  // is treated as JSON-lines.
  JsonValue Doc;
  if (JsonParser(Text).parse(Doc) && Doc.K == JsonValue::Kind::Object &&
      Doc.field("counters"))
    return loadSingleObject(Doc, Out);
  if (loadJsonLines(Text, Out))
    return true;
  std::fprintf(stderr, "twpp_metrics_diff: %s is not a recognized metrics "
                       "export\n",
               Path.c_str());
  return false;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: twpp_metrics_diff <baseline> <current> [options]\n"
      "  --metric NAME        enforce NAME (repeatable)\n"
      "  --all                enforce every counter/gauge in both files\n"
      "  --threshold-pct P    allowed increase in percent (default 5)\n"
      "  --list               print every matched entry with its delta\n"
      "  --list-metrics       enumerate baseline keys with baseline and\n"
      "                       current values (missing keys marked)\n"
      "exit: 0 ok, 1 regression, 2 usage/parse error\n");
  return twpp::cli::ExitUsage;
}

std::string keyLabel(const MetricKey &Key) {
  return Key.Label.empty() ? Key.Name : Key.Label + " " + Key.Name;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string BaselinePath, CurrentPath;
  std::set<std::string> EnforceNames;
  bool EnforceAll = false, List = false, ListMetrics = false;
  double ThresholdPct = 5.0;

  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--metric") == 0) {
      if (I + 1 >= Argc)
        return usage();
      EnforceNames.insert(Argv[++I]);
    } else if (std::strcmp(Argv[I], "--threshold-pct") == 0) {
      if (I + 1 >= Argc)
        return usage();
      ThresholdPct = std::atof(Argv[++I]);
    } else if (std::strcmp(Argv[I], "--all") == 0) {
      EnforceAll = true;
    } else if (std::strcmp(Argv[I], "--list") == 0) {
      List = true;
    } else if (std::strcmp(Argv[I], "--list-metrics") == 0) {
      ListMetrics = true;
    } else if (BaselinePath.empty()) {
      BaselinePath = Argv[I];
    } else if (CurrentPath.empty()) {
      CurrentPath = Argv[I];
    } else {
      return usage();
    }
  }
  if (BaselinePath.empty() || CurrentPath.empty())
    return usage();
  if (EnforceNames.empty() && !EnforceAll && !List && !ListMetrics) {
    std::fprintf(stderr, "twpp_metrics_diff: nothing to do — pass --metric, "
                         "--all, --list or --list-metrics\n");
    return usage();
  }

  MetricTable Baseline, Current;
  if (!loadMetricsFile(BaselinePath, Baseline) ||
      !loadMetricsFile(CurrentPath, Current))
    return twpp::cli::ExitUsage;

  // Enumerate what the baseline actually gates before the enforcement
  // pass; keys the current file no longer produces are the interesting
  // ones (a renamed metric silently stops being compared).
  if (ListMetrics) {
    std::printf("%zu baseline key(s) in %s:\n", Baseline.size(),
                BaselinePath.c_str());
    for (const auto &[Key, BaseValue] : Baseline) {
      auto It = Current.find(Key);
      if (It != Current.end())
        std::printf("  %-50s %.0f -> %.0f\n", keyLabel(Key).c_str(),
                    BaseValue, It->second);
      else
        std::printf("  %-50s %.0f -> (missing in current)\n",
                    keyLabel(Key).c_str(), BaseValue);
    }
  }

  // Every enforced name must exist in both files under at least one
  // label, otherwise a typo would silently pass forever.
  std::set<std::string> SeenEnforced;
  int Regressions = 0;
  size_t Matched = 0;
  for (const auto &[Key, BaseValue] : Baseline) {
    auto It = Current.find(Key);
    if (It == Current.end())
      continue;
    ++Matched;
    double CurValue = It->second;
    bool Enforced = EnforceAll || EnforceNames.count(Key.Name) != 0;
    if (EnforceNames.count(Key.Name))
      SeenEnforced.insert(Key.Name);
    double Allowed = BaseValue * (1.0 + ThresholdPct / 100.0);
    bool Regressed = Enforced && CurValue > Allowed &&
                     CurValue > BaseValue; // zero-baseline: any growth fails
    if (Regressed) {
      ++Regressions;
      std::printf("REGRESSION  %-40s %.0f -> %.0f (limit %.0f, +%.1f%%)\n",
                  keyLabel(Key).c_str(), BaseValue, CurValue, Allowed,
                  BaseValue != 0
                      ? (CurValue - BaseValue) / BaseValue * 100.0
                      : 100.0);
    } else if (List || Enforced) {
      std::printf("ok          %-40s %.0f -> %.0f\n", keyLabel(Key).c_str(),
                  BaseValue, CurValue);
    }
  }

  if (Matched == 0) {
    std::fprintf(stderr, "twpp_metrics_diff: no common (label, name) entries "
                         "between the two files\n");
    return twpp::cli::ExitUsage;
  }
  for (const std::string &Name : EnforceNames)
    if (!SeenEnforced.count(Name)) {
      std::fprintf(stderr, "twpp_metrics_diff: metric %s not present in both "
                           "files\n",
                   Name.c_str());
      return twpp::cli::ExitUsage;
    }

  if (Regressions) {
    std::fprintf(stderr, "twpp_metrics_diff: %d metric(s) regressed beyond "
                         "%.1f%%\n",
                 Regressions, ThresholdPct);
    return twpp::cli::ExitFindings;
  }
  return twpp::cli::ExitSuccess;
}
