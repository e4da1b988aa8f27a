// Whole-file read and write: trace files, DAMON records, the daos_ctl
// checkpoint verbs and the BENCH trajectory files all go through these two.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace daos {

/// The file's bytes; nullopt when it cannot be opened.
std::optional<std::string> ReadFile(const std::string& path);

/// Replaces the file's contents with `content`. On failure returns false
/// and, when `error` is non-null, sets it to "cannot open <path> for
/// writing" or "short write to <path>".
bool WriteFile(const std::string& path, std::string_view content,
               std::string* error = nullptr);

}  // namespace daos
