#include "dbgfs/chaos_fs.hpp"

#include <vector>

#include "util/strings.hpp"
#include "util/text.hpp"

namespace daos::dbgfs {

MountHandle ChaosFs(PseudoFs* fs, chaos::ChaosEngine* engine,
                    std::string root) {
  return fs->Mount(
      root,
      {{"/status", [engine] { return engine->StatusText(); },
        [engine](std::string_view content, std::string* error) {
          const std::vector<std::string_view> tokens = SplitWhitespace(content);
          const auto count = tokens.size() == 2 && tokens[0] == "run"
                                 ? ParseU64(tokens[1])
                                 : std::nullopt;
          if (count && *count >= 1 && *count <= 1024) {
            engine->RunNext(static_cast<std::size_t>(*count));
            return true;
          }
          if (error != nullptr) *error = "expected 'run <1..1024>'";
          return false;
        }},
       {"/last_repro",
        [engine] {
          return engine->last_repro().empty() ? std::string("none\n")
                                              : engine->last_repro() + "\n";
        },
        nullptr}});
}

}  // namespace daos::dbgfs
