// BENCH_*.json trajectory files: one JSON array per bench, one object
// appended per run, so a file's history is the bench's performance over
// time.
#pragma once

#include <string>
#include <string_view>

#include "util/file.hpp"

namespace daos::bench {

/// Appends the JSON object `entry` to the array in `path`. A missing or
/// empty file, an empty array, or anything that is not an array starts a
/// fresh array. Returns false when the file cannot be written.
inline bool AppendTrajectoryEntry(const char* path, std::string_view entry) {
  std::string text = ReadFile(path).value_or("");
  const auto trim = [&text] {
    while (!text.empty() && (text.back() == '\n' || text.back() == ' '))
      text.pop_back();
  };
  trim();
  if (text.size() > 1 && text.back() == ']') {
    text.pop_back();  // reopen the array
    trim();
  } else {
    text.clear();
  }
  // An empty array reopens to "[": start it afresh, like a missing file.
  if (text.empty() || text.back() == '[') {
    text = "[\n  ";
  } else {
    text += ",\n  ";
  }
  text += entry;
  text += "\n]\n";
  return WriteFile(path, text);
}

}  // namespace daos::bench
