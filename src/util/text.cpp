#include "util/text.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/strings.hpp"

namespace daos {

namespace {

// from_chars is exactly the integer rule: digits only — no sign, no
// whitespace, no base prefix — and out-of-range values are errors.
template <typename T>
std::optional<T> ParseUnsignedToken(std::string_view token, int base) {
  T v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v, base);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

std::optional<std::uint64_t> ParseU64(std::string_view token, int base) {
  return ParseUnsignedToken<std::uint64_t>(token, base);
}

std::optional<std::uint32_t> ParseU32(std::string_view token, int base) {
  return ParseUnsignedToken<std::uint32_t>(token, base);
}

std::optional<double> ParseDouble(std::string_view token) {
  // strtod skips leading whitespace; a padded token is malformed here.
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0])))
    return std::nullopt;
  // strtod needs NUL termination. Every real token fits the stack copy;
  // longer ones (a 100-digit decimal is still a number) take the heap.
  char stack[64];
  std::string heap;
  const char* buf = stack;
  if (token.size() < sizeof stack) {
    std::memcpy(stack, token.data(), token.size());
    stack[token.size()] = '\0';
  } else {
    heap.assign(token);
    buf = heap.c_str();
  }
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + token.size()) return std::nullopt;
  return v;
}

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  va_list retry;
  va_copy(retry, args);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0 && static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
  } else if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   retry);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(retry);
}

std::string LineError(int line, std::string_view message,
                      std::string_view prefix) {
  std::string out(prefix);
  out += "line ";
  out += std::to_string(line);
  out += ": ";
  out += message;
  return out;
}

bool LineCursor::Next() {
  if (done_) return false;
  ++number_;
  if (end_ >= text_.size()) {
    done_ = true;
    offset_ = end_ = text_.size();
    raw_ = {};
    return false;
  }
  offset_ = end_;
  const std::size_t brk = semicolons_ ? text_.find_first_of("\n;", offset_)
                                      : text_.find('\n', offset_);
  if (brk == std::string_view::npos) {
    raw_ = text_.substr(offset_);
    end_ = text_.size();
  } else {
    raw_ = text_.substr(offset_, brk - offset_);
    end_ = brk + 1;
  }
  return true;
}

std::string_view LineCursor::content() const {
  return TrimWhitespace(StripComment(raw_));
}

}  // namespace daos
