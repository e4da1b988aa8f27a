#include "dbgfs/procfs.hpp"

#include <cinttypes>

#include "sim/system.hpp"
#include "util/strings.hpp"
#include "util/text.hpp"

namespace daos::dbgfs {

ProcFs::ProcFs(sim::System* system, PseudoFs* fs, std::string root)
    : system_(system), fs_(fs), root_(std::move(root)) {
  Refresh();
}

void ProcFs::Refresh() {
  for (auto& proc : system_->processes()) {
    sim::Process* p = proc.get();
    const std::string dir = root_ + "/" + std::to_string(p->pid());
    if (fs_->Exists(dir + "/status")) continue;
    fs_->RegisterFile(
        dir + "/status",
        [p] {
          std::string out;
          AppendF(out, "Name:\t%s\nVmSize:\t%" PRIu64 " kB\nVmRSS:\t%" PRIu64
                       " kB\n",
                  p->name().c_str(), p->space().mapped_bytes() / 1024,
                  p->ReadRssBytes() / 1024);
          return out;
        },
        nullptr);
    fs_->RegisterFile(
        dir + "/statm",
        [p] {
          std::string out;
          AppendF(out, "%" PRIu64 " %" PRIu64 "\n",
                  p->space().mapped_bytes() / kPageSize,
                  p->space().resident_pages());
          return out;
        },
        nullptr);
  }
}

std::uint64_t ProcFs::ReadRssBytes(int pid) const {
  const auto content =
      fs_->Read(root_ + "/" + std::to_string(pid) + "/status");
  if (!content) return 0;
  for (std::string_view line : SplitChar(*content, '\n')) {
    if (!StartsWith(line, "VmRSS:")) continue;
    const auto tokens = SplitWhitespace(line.substr(6));
    if (tokens.empty()) return 0;
    return ParseU64(tokens[0]).value_or(0) * 1024;
  }
  return 0;
}

}  // namespace daos::dbgfs
