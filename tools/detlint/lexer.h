#ifndef HERMES_TOOLS_DETLINT_LEXER_H_
#define HERMES_TOOLS_DETLINT_LEXER_H_

// detlint lexer: turns a C++ source file into the three streams the rule
// pass consumes — a token stream (identifiers, numbers, punctuation),
// the comment list (suppressions live there),
// and the #include directives (the include-graph rules live there).
//
// This replaces detlint v1's regex-over-stripped-text approach: string
// literals (including raw strings, which v1 could not lex) and comments
// can never produce a false token, multi-character operators like `->`
// and `::` are single tokens so angle-bracket matching does not
// mis-count, and every token carries its line so findings stay precise.
//
// It is still a lexer, not a compiler front end: no preprocessing, no
// template instantiation, no name lookup. The rules built on top are
// deliberately tripwires; the runtime digest oracles (multi-salt
// perturbation, sequential-vs-parallel digests) remain the ground truth.

#include <cstddef>
#include <string>
#include <vector>

namespace detlint {

enum class TokKind {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals
  kPunct,   // operators/punctuation; multi-char: :: -> << >> <= >= == != && ||
};

struct Token {
  TokKind kind;
  std::string text;
  size_t offset = 0;  // byte offset into the raw file
  int line = 0;       // 1-based
};

struct Comment {
  std::string text;   // comment body, delimiters included
  size_t offset = 0;  // offset of the first delimiter character
  size_t end = 0;     // offset one past the comment's last character
  int line = 0;
};

struct IncludeDirective {
  std::string target;  // header name between the delimiters
  bool system = false; // <...> vs "..."
  size_t offset = 0;   // offset of the '#'
  int line = 0;
};

struct LexedFile {
  std::string path;          // path as reported in diagnostics
  std::string virtual_path;  // rule-scoping path (fixtures override it)
  std::string raw;
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;
  std::vector<size_t> line_starts;  // offset of each line's first byte
};

/// Lexes `raw`. `path` is used verbatim in diagnostics; `virtual_path`
/// (usually equal) is what path-scoped rules test against.
LexedFile Lex(std::string path, std::string virtual_path, std::string raw);

/// 1-based line containing `offset`.
int LineOf(const LexedFile& f, size_t offset);

/// Trimmed (and truncated) source text of `line`, for finding excerpts.
std::string LineText(const LexedFile& f, int line);

}  // namespace detlint

#endif  // HERMES_TOOLS_DETLINT_LEXER_H_
