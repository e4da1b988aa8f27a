// The low-level syntax shared by every DAOS control grammar.
//
// All user-space control in the paper (§3.6) is text written to debugfs
// files, and this reproduction parses a dozen such grammars: scheme and
// governor clauses, tier geometry, DAOS_FAULTS and chaos campaigns,
// checkpoints, trace headers, commit bundles, rollout specs and more. Each
// grammar owns its keywords and messages; this module owns what they have in
// common, so a number token means the same thing in every file:
//
//   * integers are bare digits — base 10 unless a grammar says hex — with
//     no sign, no whitespace padding, no prefix, and overflow rejected;
//   * floating-point tokens are whatever the C library's conversion
//     consumes in full (sign, exponent and "%a" hex floats included),
//     again without padding;
//   * lines end at '\n' (and at ';' where a grammar allows it), '#' starts
//     a comment, and errors read "<prefix>line N: <message>".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace daos {

/// Parses an unsigned integer token in `base` (10, or 16 where a grammar
/// says hex): digits only.
std::optional<std::uint64_t> ParseU64(std::string_view token, int base = 10);

/// ParseU64 with a 32-bit range check.
std::optional<std::uint32_t> ParseU32(std::string_view token, int base = 10);

/// Parses a floating-point token the C library converts in full. Converts
/// from a stack copy, so the hot checkpoint reader allocates nothing.
std::optional<double> ParseDouble(std::string_view token);

/// printf-style append to `out`.
void AppendF(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// "<prefix>line <line>: <message>" — the one error shape every
/// line-oriented grammar reports.
std::string LineError(int line, std::string_view message,
                      std::string_view prefix = {});

/// Walks control-file text one line at a time. A line ends at '\n', and
/// also at ';' when `semicolons` is set; the last line needs no terminator,
/// and the empty tail after a final terminator is not a line. Once Next()
/// has returned false, number() names the line after the last one — where
/// an "unexpected end of input" error points.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text, bool semicolons = false)
      : text_(text), semicolons_(semicolons) {}

  /// Advances to the next line; false at the end of the text.
  bool Next();

  /// 1-based number of the current line.
  int number() const noexcept { return number_; }
  /// The current line without its terminator.
  std::string_view raw() const noexcept { return raw_; }
  /// raw() with any '#' comment stripped and whitespace trimmed.
  std::string_view content() const;
  /// Byte offset of raw() within the text.
  std::size_t offset() const noexcept { return offset_; }
  /// Byte offset just past the current line's terminator.
  std::size_t end() const noexcept { return end_; }
  /// Whether the current line ended at a separator (vs. end of text).
  bool terminated() const noexcept { return end_ > offset_ + raw_.size(); }

 private:
  std::string_view text_;
  bool semicolons_;
  std::string_view raw_;
  std::size_t offset_ = 0;
  std::size_t end_ = 0;
  int number_ = 0;
  bool done_ = false;
};

}  // namespace daos
