#include "dbgfs/trace_fs.hpp"

#include <cinttypes>

#include "util/strings.hpp"
#include "util/text.hpp"

namespace daos::dbgfs {

TraceFs::TraceFs(PseudoFs* fs, sim::AddressSpace* space, trace::TraceMeta meta)
    : space_(space),
      meta_(std::move(meta)),
      files_(fs->Mount(
          "/trace",
          {{"/record",
            [this] { return std::string(recording_ ? "on\n" : "off\n"); },
            [this](std::string_view content, std::string* error) {
              const std::string_view arg = TrimWhitespace(content);
              if (arg == "on") {
                // Re-arming restarts the capture: a fresh writer, same
                // header.
                writer_ = std::make_unique<trace::TraceWriter>(meta_);
                space_->SetAccessTap(writer_.get());
                recording_ = true;
                return true;
              }
              if (arg == "off") {
                space_->SetAccessTap(nullptr);
                recording_ = false;
                return true;
              }
              if (error != nullptr)
                *error = LineError(1, "expected \"on\" or \"off\"");
              return false;
            }},
           {"/status",
            [this] {
              std::string out;
              AppendF(out,
                      "recording %s\nevents %" PRIu64 "\nchunks %" PRIu64
                      "\nbody_bytes %" PRIu64 "\n",
                      recording_ ? "on" : "off",
                      writer_ ? writer_->events() : 0,
                      writer_ ? writer_->chunks() : 0,
                      writer_ ? writer_->body_bytes() : 0);
              return out;
            },
            nullptr},
           {"/data",
            [this] {
              // An unarmed plane serializes as an empty-but-valid trace, so
              // consumers can always round-trip what they read here.
              if (writer_ == nullptr) {
                return SerializeTrace(trace::Trace{meta_, {}});
              }
              return writer_->Finish();
            },
            nullptr}})) {}

TraceFs::~TraceFs() {
  if (recording_) space_->SetAccessTap(nullptr);
}

}  // namespace daos::dbgfs
