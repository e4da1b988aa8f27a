#include "dbgfs/pseudo_fs.hpp"

#include "util/strings.hpp"

namespace daos::dbgfs {

void PseudoFs::RegisterFile(std::string path, FileReader reader,
                            FileWriter writer) {
  files_[std::move(path)] = Node{std::move(reader), std::move(writer)};
}

void PseudoFs::RemoveFile(const std::string& path) { files_.erase(path); }

MountHandle PseudoFs::Mount(const std::string& dir,
                            std::vector<FileSpec> files) {
  std::vector<std::string> paths;
  paths.reserve(files.size());
  for (FileSpec& f : files) {
    paths.push_back(dir + f.name);
    RegisterFile(paths.back(), std::move(f.reader), std::move(f.writer));
  }
  return MountHandle(this, std::move(paths));
}

MountHandle::~MountHandle() {
  if (fs_ == nullptr) return;  // moved from
  for (const std::string& path : paths_) fs_->RemoveFile(path);
}

bool PseudoFs::Exists(const std::string& path) const {
  return files_.count(path) > 0;
}

std::vector<std::string> PseudoFs::List(std::string_view prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, node] : files_) {
    if (StartsWith(path, prefix)) out.push_back(path);
  }
  return out;
}

std::optional<std::string> PseudoFs::Read(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end() || !it->second.reader) return std::nullopt;
  return it->second.reader();
}

bool PseudoFs::Write(const std::string& path, std::string_view content,
                     std::string* error) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    if (error != nullptr) *error = "no such file: " + path;
    return false;
  }
  if (!it->second.writer) {
    if (error != nullptr) *error = "read-only file: " + path;
    return false;
  }
  return it->second.writer(content, error);
}

}  // namespace daos::dbgfs
