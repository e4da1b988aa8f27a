// A tiny pseudo-filesystem: string paths bound to read/write handlers.
//
// The paper's user-space interface (§3.6) is the Linux debugfs: the
// Auto-tuning Runtime configures the kernel-side Memory Schemes Engine by
// *writing strings to files* and reads results back the same way. This
// class reproduces that interaction model so the user-space side of DAOS
// can be exercised exactly as the paper's bash/python scripts exercise the
// kernel.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace daos::dbgfs {

/// Produces the file's current content.
using FileReader = std::function<std::string()>;
/// Consumes a write; returns false and fills `error` on invalid input
/// (the debugfs convention of failing the write() syscall).
using FileWriter =
    std::function<bool(std::string_view content, std::string* error)>;

/// One row of a Mount table: the file `<dir><name>`.
struct FileSpec {
  std::string name;
  FileReader reader;
  FileWriter writer;
};

class PseudoFs;

/// Keeps a Mount's files registered; destroying the handle removes exactly
/// those files. Discarding it unmounts at once, hence [[nodiscard]].
class [[nodiscard]] MountHandle {
 public:
  MountHandle(PseudoFs* fs, std::vector<std::string> paths)
      : fs_(fs), paths_(std::move(paths)) {}
  MountHandle(MountHandle&& other) noexcept
      : fs_(std::exchange(other.fs_, nullptr)),
        paths_(std::move(other.paths_)) {}
  ~MountHandle();

  MountHandle(const MountHandle&) = delete;
  MountHandle& operator=(const MountHandle&) = delete;

 private:
  PseudoFs* fs_;
  std::vector<std::string> paths_;
};

class PseudoFs {
 public:
  /// Registers a file. A null reader makes the file write-only; a null
  /// writer makes it read-only.
  void RegisterFile(std::string path, FileReader reader, FileWriter writer);
  void RemoveFile(const std::string& path);

  /// Registers every file of `files` under `dir` (path = dir + name). The
  /// files stay until the returned handle is destroyed.
  MountHandle Mount(const std::string& dir, std::vector<FileSpec> files);

  bool Exists(const std::string& path) const;
  /// Lists registered paths under a prefix (lexicographic order).
  std::vector<std::string> List(std::string_view prefix = "") const;

  /// Reads the whole file; nullopt if absent or write-only.
  std::optional<std::string> Read(const std::string& path) const;

  /// Writes the whole file; false if absent, read-only, or the handler
  /// rejected the content. `error`, when non-null, explains rejections.
  bool Write(const std::string& path, std::string_view content,
             std::string* error = nullptr);

 private:
  struct Node {
    FileReader reader;
    FileWriter writer;
  };
  std::map<std::string, Node> files_;
};

}  // namespace daos::dbgfs
