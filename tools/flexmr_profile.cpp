// flexmr-profile: read flexmr.profile.v1 self-profiles (DESIGN.md §15).
//
//   flexmr-profile report PROFILE_scale.json [--top N]
//       Top-N scopes by self (exclusive) time, with counts and per-call
//       cost, so "where do the host cycles go?" has a one-command answer.
//
//   flexmr-profile diff OLD.json NEW.json [--threshold F] [--min-share F]
//                  [--min-pts P]
//       Perf-regression guard: compares each scope's *share* of total self
//       time (shares are ratios within one run, so they transfer across
//       machines far better than absolute nanoseconds). Exits 1 if any
//       scope at or above --min-share (default 0.02 = 2%) grew its share
//       by more than --threshold (default 0.25 = +25% relative) AND by at
//       least --min-pts percentage points absolute (default 5) — the AND
//       keeps run-to-run jitter from tripping the guard: identical
//       binaries on a shared CI core swing short scopes by ±3 points, a
//       real new O(nodes) term adds tens. Scopes new in NEW above the
//       floor count as regressions from zero.
//
// The repo's JSON layer is write-only by design; the small recursive-
// descent parser here accepts the documents our JsonWriter emits (strict
// RFC 8259 subset, no comments, no trailing commas) and is private to this
// tool — simulation code never parses JSON.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + parser
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                             // kArray
  std::vector<std::pair<std::string, JsonValue>> members;   // kObject

  const JsonValue* get(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double num_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// Parses the single root value; throws std::runtime_error on malformed
  /// input (including trailing garbage).
  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP codepoint (surrogate pairs are not used
          // by our writer; a lone surrogate round-trips as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Profile model
// ---------------------------------------------------------------------------

struct ScopeRow {
  std::string path;  ///< "mr/heartbeat > rm/offer_all" (parent chain).
  std::string name;
  double count = 0;
  double inclusive_ns = 0;
  double exclusive_ns = 0;
};

struct Profile {
  double wall_ns = 0;
  double total_exclusive_ns = 0;
  std::vector<ScopeRow> scopes;  ///< In document (creation) order.
};

Profile load_profile(const JsonValue& doc) {
  const JsonValue* schema = doc.get("schema");
  if (schema == nullptr || schema->str != "flexmr.profile.v1") {
    throw std::runtime_error("not a flexmr.profile.v1 document");
  }
  Profile p;
  p.wall_ns = doc.get("wall_ns") ? doc.get("wall_ns")->num_or(0) : 0;
  const JsonValue* scopes = doc.get("scopes");
  if (scopes == nullptr || scopes->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("missing scopes array");
  }
  for (const JsonValue& s : scopes->items) {
    ScopeRow row;
    row.name = s.get("name") ? s.get("name")->str : "?";
    row.count = s.get("count") ? s.get("count")->num_or(0) : 0;
    row.inclusive_ns =
        s.get("inclusive_ns") ? s.get("inclusive_ns")->num_or(0) : 0;
    row.exclusive_ns =
        s.get("exclusive_ns") ? s.get("exclusive_ns")->num_or(0) : 0;
    const double parent = s.get("parent") ? s.get("parent")->num_or(-1) : -1;
    if (parent >= 0 && static_cast<std::size_t>(parent) < p.scopes.size()) {
      row.path = p.scopes[static_cast<std::size_t>(parent)].path + " > " +
                 row.name;
    } else {
      row.path = row.name;
    }
    p.total_exclusive_ns += row.exclusive_ns;
    p.scopes.push_back(std::move(row));
  }
  return p;
}

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(std::string("cannot read ") + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double seconds(double ns) { return ns / 1e9; }

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

int report(const char* path, std::size_t top_n) {
  const std::string text = read_file(path);
  const JsonValue doc = JsonParser(text).parse();
  const Profile p = load_profile(doc);

  std::vector<const ScopeRow*> by_self;
  by_self.reserve(p.scopes.size());
  for (const ScopeRow& row : p.scopes) by_self.push_back(&row);
  std::stable_sort(by_self.begin(), by_self.end(),
                   [](const ScopeRow* a, const ScopeRow* b) {
                     return a->exclusive_ns > b->exclusive_ns;
                   });

  std::printf("profile: %s\n", path);
  std::printf("wall %.3fs, attributed self time %.3fs (%.1f%% of wall)\n\n",
              seconds(p.wall_ns), seconds(p.total_exclusive_ns),
              p.wall_ns > 0 ? 100.0 * p.total_exclusive_ns / p.wall_ns : 0.0);
  std::printf("%-8s %-10s %-10s %-12s %-10s %s\n", "self%", "self(s)",
              "incl(s)", "count", "ns/call", "scope");
  const std::size_t limit = std::min(top_n, by_self.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const ScopeRow& row = *by_self[i];
    const double share = p.total_exclusive_ns > 0
                             ? 100.0 * row.exclusive_ns / p.total_exclusive_ns
                             : 0.0;
    std::printf("%7.2f%% %-10.3f %-10.3f %-12.0f %-10.0f %s\n", share,
                seconds(row.exclusive_ns), seconds(row.inclusive_ns),
                row.count, row.count > 0 ? row.exclusive_ns / row.count : 0.0,
                row.path.c_str());
  }

  return 0;
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

int diff(const char* old_path, const char* new_path, double threshold,
         double min_share, double min_pts) {
  const JsonValue old_doc = JsonParser(read_file(old_path)).parse();
  const JsonValue new_doc = JsonParser(read_file(new_path)).parse();
  const Profile old_p = load_profile(old_doc);
  const Profile new_p = load_profile(new_doc);

  std::map<std::string, double> old_share;
  for (const ScopeRow& row : old_p.scopes) {
    old_share[row.path] = old_p.total_exclusive_ns > 0
                              ? row.exclusive_ns / old_p.total_exclusive_ns
                              : 0.0;
  }

  // Regression = relative growth beyond the threshold AND at least
  // min_pts percentage points absolute. Both guards matter: relative
  // alone trips on 0.1%→0.2% jitter, absolute alone hides a hot scope
  // doubling.
  int regressions = 0;
  std::printf("diff: %s -> %s (threshold +%.0f%% relative and >=%.0f pts, "
              "floor %.0f%% share)\n\n",
              old_path, new_path, threshold * 100.0, min_pts * 100.0,
              min_share * 100.0);
  for (const ScopeRow& row : new_p.scopes) {
    const double share = new_p.total_exclusive_ns > 0
                             ? row.exclusive_ns / new_p.total_exclusive_ns
                             : 0.0;
    if (share < min_share) continue;
    const auto it = old_share.find(row.path);
    const double before = it == old_share.end() ? 0.0 : it->second;
    const bool regressed = share > before * (1.0 + threshold) &&
                           share - before >= min_pts;
    if (regressed) {
      ++regressions;
      if (it == old_share.end()) {
        std::printf("REGRESSION %-44s new scope at %5.1f%% self-time share\n",
                    row.path.c_str(), share * 100.0);
      } else {
        std::printf("REGRESSION %-44s share %5.1f%% -> %5.1f%% (%+.1f pts)\n",
                    row.path.c_str(), before * 100.0, share * 100.0,
                    (share - before) * 100.0);
      }
    } else {
      std::printf("ok         %-44s share %5.1f%% -> %5.1f%%\n",
                  row.path.c_str(), before * 100.0, share * 100.0);
    }
  }
  if (regressions > 0) {
    std::printf("\n%d scope(s) regressed beyond the threshold\n", regressions);
    return 1;
  }
  std::printf("\nno self-time share regressions\n");
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  flexmr-profile report PROFILE.json [--top N]\n"
      "  flexmr-profile diff OLD.json NEW.json [--threshold F] "
      "[--min-share F] [--min-pts P]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string mode = argv[1];
    if (mode == "report") {
      if (argc < 3) return usage();
      std::size_t top_n = 20;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
          top_n = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr,
                                                        10));
        } else {
          return usage();
        }
      }
      return report(argv[2], top_n);
    }
    if (mode == "diff") {
      if (argc < 4) return usage();
      double threshold = 0.25;
      double min_share = 0.02;
      double min_pts = 0.05;  // percentage points, as a share fraction
      for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
          threshold = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--min-share") == 0 && i + 1 < argc) {
          min_share = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--min-pts") == 0 && i + 1 < argc) {
          min_pts = std::strtod(argv[++i], nullptr) / 100.0;
        } else {
          return usage();
        }
      }
      return diff(argv[2], argv[3], threshold, min_share, min_pts);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flexmr-profile: %s\n", e.what());
    return 2;
  }
}
