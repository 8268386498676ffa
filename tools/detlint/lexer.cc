#include "lexer.h"

#include <algorithm>
#include <cctype>

namespace detlint {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True when the identifier ending just before `quote` is a raw-string
/// prefix (R, u8R, LR, uR, UR) rather than an ordinary identifier that
/// happens to touch a quote (macros like FOO"x" do not exist here).
bool IsRawStringPrefix(const std::string& s, size_t ident_begin,
                       size_t quote) {
  const std::string p = s.substr(ident_begin, quote - ident_begin);
  return p == "R" || p == "u8R" || p == "LR" || p == "uR" || p == "UR";
}

/// Two-character punctuation tokens the rules depend on: `::` and `->`
/// so qualified names and member accesses stay single tokens, the
/// comparison/shift group so angle-bracket matching never sees a stray
/// `<` or `>`.
bool IsTwoCharPunct(char a, char b) {
  return (a == ':' && b == ':') || (a == '-' && b == '>') ||
         (a == '<' && b == '<') || (a == '>' && b == '>') ||
         (a == '<' && b == '=') || (a == '>' && b == '=') ||
         (a == '=' && b == '=') || (a == '!' && b == '=') ||
         (a == '&' && b == '&') || (a == '|' && b == '|');
}

}  // namespace

int LineOf(const LexedFile& f, size_t offset) {
  auto it = std::upper_bound(f.line_starts.begin(), f.line_starts.end(),
                             offset);
  return static_cast<int>(it - f.line_starts.begin());
}

std::string LineText(const LexedFile& f, int line) {
  if (line < 1 || static_cast<size_t>(line) > f.line_starts.size()) return "";
  const size_t begin = f.line_starts[line - 1];
  size_t end = f.raw.find('\n', begin);
  if (end == std::string::npos) end = f.raw.size();
  std::string text = f.raw.substr(begin, end - begin);
  const size_t first = text.find_first_not_of(" \t");
  if (first != std::string::npos) text = text.substr(first);
  if (text.size() > 90) text = text.substr(0, 87) + "...";
  return text;
}

LexedFile Lex(std::string path, std::string virtual_path, std::string raw) {
  LexedFile f;
  f.path = std::move(path);
  f.virtual_path = std::move(virtual_path);
  f.raw = std::move(raw);
  const std::string& s = f.raw;

  f.line_starts.push_back(0);
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') f.line_starts.push_back(i + 1);
  }

  size_t i = 0;
  bool at_line_start = true;  // only whitespace seen since the last newline
  while (i < s.size()) {
    const char c = s[i];
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';

    if (c == '\n') {
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }

    // Comments.
    if (c == '/' && next == '/') {
      size_t end = s.find('\n', i);
      if (end == std::string::npos) end = s.size();
      f.comments.push_back(
          Comment{s.substr(i, end - i), i, end, LineOf(f, i)});
      i = end;
      continue;
    }
    if (c == '/' && next == '*') {
      size_t end = s.find("*/", i + 2);
      end = end == std::string::npos ? s.size() : end + 2;
      f.comments.push_back(
          Comment{s.substr(i, end - i), i, end, LineOf(f, i)});
      i = end;
      at_line_start = false;
      continue;
    }

    // #include directives. Other preprocessor lines are tokenized
    // normally so macro bodies are scanned like any other code (v1
    // behaved the same way on its stripped text).
    if (c == '#' && at_line_start) {
      size_t j = i + 1;
      while (j < s.size() && (s[j] == ' ' || s[j] == '\t')) ++j;
      if (s.compare(j, 7, "include") == 0) {
        j += 7;
        while (j < s.size() && (s[j] == ' ' || s[j] == '\t')) ++j;
        if (j < s.size() && (s[j] == '<' || s[j] == '"')) {
          const char close = s[j] == '<' ? '>' : '"';
          const size_t name_begin = j + 1;
          const size_t name_end = s.find(close, name_begin);
          if (name_end != std::string::npos) {
            f.includes.push_back(IncludeDirective{
                s.substr(name_begin, name_end - name_begin), close == '>', i,
                LineOf(f, i)});
            i = name_end + 1;
            at_line_start = false;
            continue;
          }
        }
      }
      // Not an include: fall through and emit '#' as punctuation.
    }

    at_line_start = false;

    // String literals (skipped): raw strings first, then ordinary.
    if (IsIdentStart(c)) {
      size_t end = i;
      while (end < s.size() && IsIdentChar(s[end])) ++end;
      if (end < s.size() && s[end] == '"' && IsRawStringPrefix(s, i, end)) {
        // R"delim( ... )delim"
        size_t d = end + 1;
        size_t paren = s.find('(', d);
        if (paren == std::string::npos) {
          i = s.size();
          continue;
        }
        std::string closer = ")";
        closer.append(s, d, paren - d).append(1, '"');
        size_t close = s.find(closer, paren + 1);
        i = close == std::string::npos ? s.size() : close + closer.size();
        continue;
      }
      f.tokens.push_back(
          Token{TokKind::kIdent, s.substr(i, end - i), i, LineOf(f, i)});
      i = end;
      continue;
    }
    if (c == '"') {
      size_t j = i + 1;
      while (j < s.size()) {
        if (s[j] == '\\') {
          j += 2;
          continue;
        }
        if (s[j] == '"') break;
        ++j;
      }
      i = j < s.size() ? j + 1 : s.size();
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      while (j < s.size()) {
        if (s[j] == '\\') {
          j += 2;
          continue;
        }
        if (s[j] == '\'') break;
        ++j;
      }
      i = j < s.size() ? j + 1 : s.size();
      continue;
    }

    // Numbers (digit-separators and suffixes folded into one token; a
    // trailing exponent sign is part of the literal).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t end = i + 1;
      while (end < s.size() &&
             (IsIdentChar(s[end]) || s[end] == '.' || s[end] == '\'' ||
              ((s[end] == '+' || s[end] == '-') &&
               (s[end - 1] == 'e' || s[end - 1] == 'E' || s[end - 1] == 'p' ||
                s[end - 1] == 'P')))) {
        ++end;
      }
      f.tokens.push_back(
          Token{TokKind::kNumber, s.substr(i, end - i), i, LineOf(f, i)});
      i = end;
      continue;
    }

    // Punctuation.
    if (IsTwoCharPunct(c, next)) {
      f.tokens.push_back(
          Token{TokKind::kPunct, s.substr(i, 2), i, LineOf(f, i)});
      i += 2;
      continue;
    }
    f.tokens.push_back(Token{TokKind::kPunct, std::string(1, c), i,
                             LineOf(f, i)});
    ++i;
  }
  return f;
}

}  // namespace detlint
