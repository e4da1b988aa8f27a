#include "fault/fault.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/strings.hpp"
#include "util/text.hpp"

namespace daos::fault {

namespace {

// FNV-1a, folded into the plane seed to derive one independent RNG stream
// per point name. Stability across platforms matters (replay files quote
// seeds), so no std::hash.
std::uint64_t HashName(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

TriggerParse ParseTrigger(std::string_view key, std::string_view value,
                          FaultSpec* spec, std::string* error) {
  const auto bad = [&](const char* what, const char* want) {
    if (error != nullptr)
      *error = std::string(what) + " '" + std::string(value) + "' (want " +
               want + ")";
    return TriggerParse::kBadValue;
  };
  if (key == "p") {
    const auto p = ParseDouble(value);
    if (!p || !(*p >= 0.0 && *p <= 1.0))
      return bad("bad probability", "a float in [0, 1]");
    spec->probability = *p;
  } else if (key == "every") {
    const auto n = ParseU64(value);
    if (!n || *n == 0) return bad("bad ordinal", "an integer >= 1");
    spec->every_nth = *n;
  } else if (key == "once") {
    const auto n = ParseU64(value);
    if (!n || *n == 0) return bad("bad one-shot ordinal", "an integer >= 1");
    spec->once_at = *n;
  } else {
    return TriggerParse::kUnknownKey;
  }
  return TriggerParse::kApplied;
}

void AppendTriggers(std::string& out, const FaultSpec& spec) {
  const char* sep = "";
  if (spec.probability > 0.0) {
    AppendF(out, "p=%g", spec.probability);
    sep = " ";
  }
  if (spec.every_nth > 0) {
    AppendF(out, "%severy=%" PRIu64, sep, spec.every_nth);
    sep = " ";
  }
  if (spec.once_at > 0) AppendF(out, "%sonce=%" PRIu64, sep, spec.once_at);
}

const std::vector<std::string_view>& WellKnownPoints() {
  static const std::vector<std::string_view> kPoints = {
      kSwapWriteError,    kSwapSlotExhausted, kAllocFrameFail,
      kThpCollapseFail,   kTierMigrateFail,   kDaemonOverrun,
      kDaemonCrash,       kTrialHang,         kFleetShardCrash,
      kFleetRollbackFail, kFleetTelemetryLoss};
  return kPoints;
}

FaultPoint::FaultPoint(std::string name, std::uint64_t plane_seed)
    : name_(std::move(name)),
      plane_seed_(plane_seed),
      rng_(StreamSeed(name_, plane_seed)) {}

std::uint64_t FaultPoint::StreamSeed(std::string_view name,
                                     std::uint64_t plane_seed) {
  return plane_seed ^ HashName(name);
}

void FaultPoint::Arm(const FaultSpec& spec) {
  spec_ = spec;
  armed_ = spec.armed();
  ResetSchedule();
}

void FaultPoint::Disarm() {
  spec_ = FaultSpec{};
  armed_ = false;
  ResetSchedule();
}

void FaultPoint::ResetSchedule() {
  hits_.store(0, std::memory_order_relaxed);
  fires_.store(0, std::memory_order_relaxed);
  rng_.Reseed(StreamSeed(name_, plane_seed_));
}

bool FaultPoint::Roll() noexcept {
  // Claim this check's ordinal atomically; `once=`/`every=` are then pure
  // functions of the ordinal, so each ordinal-triggered fault fires for
  // exactly one check even when a plane is shared across threads.
  const std::uint64_t ordinal =
      hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  cum_hits_.fetch_add(1, std::memory_order_relaxed);
  bool fire = false;
  if (spec_.once_at > 0 && ordinal == spec_.once_at) fire = true;
  if (spec_.every_nth > 0 && ordinal % spec_.every_nth == 0) fire = true;
  // The probability draw happens unconditionally while armed so the RNG
  // stream position depends only on the hit ordinal, not on what the other
  // triggers decided — combined specs stay replayable. The stream is the
  // one part of a point that is *not* thread-safe: p= requires the plane
  // to stay thread-confined.
  if (spec_.probability > 0.0 && rng_.NextBool(spec_.probability)) fire = true;
  if (fire) {
    fires_.fetch_add(1, std::memory_order_relaxed);
    cum_fires_.fetch_add(1, std::memory_order_relaxed);
    if (fires_counter_ != nullptr) fires_counter_->Add();
  }
  return fire;
}

FaultPlane::FaultPlane(std::uint64_t seed) : seed_(seed) {}

FaultPoint& FaultPlane::Point(std::string_view name) {
  auto it = points_.find(name);
  if (it == points_.end()) {
    auto point = std::unique_ptr<FaultPoint>(
        new FaultPoint(std::string(name), seed_));
    it = points_.emplace(point->name(), std::move(point)).first;
    if (registry_ != nullptr) BindPoint(*it->second);
  }
  return *it->second;
}

FaultPoint* FaultPlane::Find(std::string_view name) {
  const auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second.get();
}

const FaultPoint* FaultPlane::Find(std::string_view name) const {
  const auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second.get();
}

void FaultPlane::DisarmAll() {
  for (auto& [name, point] : points_) point->Disarm();
}

void FaultPlane::Reseed(std::uint64_t seed) {
  seed_ = seed;
  for (auto& [name, point] : points_) {
    point->plane_seed_ = seed;
    point->ResetSchedule();
  }
}

bool FaultPlane::Configure(std::string_view text, std::string* error) {
  struct Directive {
    enum class Kind { kArm, kDisarm, kSeed, kReset } kind;
    std::string point;
    FaultSpec spec;
    std::uint64_t seed = 0;
  };
  std::vector<Directive> directives;

  // Parse everything before touching any state: a write with an error on
  // line 3 must not half-apply lines 1-2 (same atomicity contract as
  // dbgfs WriteSchemes).
  LineCursor lines(text, /*semicolons=*/true);
  while (lines.Next()) {
    const std::string_view line = lines.content();
    if (line.empty()) continue;
    const auto fail = [&](const std::string& msg) {
      if (error != nullptr) *error = LineError(lines.number(), msg);
      return false;
    };

    const std::vector<std::string_view> tokens = SplitWhitespace(line);
    if (tokens[0] == "reset") {
      if (tokens.size() != 1) return fail("'reset' takes no arguments");
      directives.push_back({Directive::Kind::kReset, {}, {}, 0});
      continue;
    }
    if (tokens[0] == "seed") {
      const auto seed = tokens.size() == 2 ? ParseU64(tokens[1]) : std::nullopt;
      if (!seed) return fail("expected 'seed <u64>'");
      directives.push_back({Directive::Kind::kSeed, {}, {}, *seed});
      continue;
    }
    if (tokens.size() < 2) {
      return fail("expected '<point> <trigger>...' or '<point> off'");
    }
    if (tokens.size() == 2 && tokens[1] == "off") {
      directives.push_back(
          {Directive::Kind::kDisarm, std::string(tokens[0]), {}, 0});
      continue;
    }
    FaultSpec spec;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::string_view tok = tokens[i];
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos) {
        return fail("bad trigger '" + std::string(tok) +
                    "' (want p=<prob>, every=<N>, or once=<N>)");
      }
      const std::string_view key = tok.substr(0, eq);
      std::string msg;
      switch (ParseTrigger(key, tok.substr(eq + 1), &spec, &msg)) {
        case TriggerParse::kApplied:
          break;
        case TriggerParse::kBadValue:
          return fail(msg);
        case TriggerParse::kUnknownKey:
          return fail("unknown trigger '" + std::string(key) + "'");
      }
    }
    directives.push_back(
        {Directive::Kind::kArm, std::string(tokens[0]), spec, 0});
  }

  for (const Directive& d : directives) {
    switch (d.kind) {
      case Directive::Kind::kArm:
        Arm(d.point, d.spec);
        break;
      case Directive::Kind::kDisarm:
        Point(d.point).Disarm();
        break;
      case Directive::Kind::kSeed:
        Reseed(d.seed);
        break;
      case Directive::Kind::kReset:
        DisarmAll();
        break;
    }
  }
  return true;
}

std::string FaultPlane::StatusText() const {
  std::string out;
  AppendF(out, "seed %" PRIu64 "\n", seed_);
  for (const auto& [name, point] : points_) {
    out += name;
    out += ' ';
    if (point->spec().armed()) {
      AppendTriggers(out, point->spec());
    } else {
      out += "off";
    }
    AppendF(out,
            " hits=%" PRIu64 " fires=%" PRIu64 " fired=%" PRIu64
            " suppressed=%" PRIu64 "\n",
            point->hits(), point->fires(), point->cumulative_fires(),
            point->cumulative_suppressed());
  }
  return out;
}

void FaultPlane::BindTelemetry(telemetry::MetricsRegistry& registry,
                               std::string_view prefix) {
  registry_ = &registry;
  prefix_ = std::string(prefix);
  for (auto& [name, point] : points_) BindPoint(*point);
}

void FaultPlane::BindPoint(FaultPoint& point) {
  point.fires_counter_ =
      &registry_->GetCounter(prefix_ + "." + point.name_ + ".fires");
}

std::vector<std::string> FaultPlane::Names() const {
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, point] : points_) names.push_back(name);
  return names;
}

std::unique_ptr<FaultPlane> FaultPlane::FromEnv() {
  // Serialized: every System construction lands here, and concurrent
  // experiment runs (ParallelRunner) construct Systems from many threads.
  // getenv itself is only thread-safe against other getenv calls; the lock
  // also keeps the stderr diagnostics whole.
  static std::mutex env_mu;
  const std::lock_guard<std::mutex> lock(env_mu);
  const char* spec = std::getenv("DAOS_FAULTS");
  if (spec == nullptr || *spec == '\0') return nullptr;
  std::uint64_t seed = 0xfa'017'fa'017ULL;
  if (const char* seed_env = std::getenv("DAOS_FAULT_SEED")) {
    if (const auto parsed = ParseU64(seed_env)) {
      seed = *parsed;
    } else if (*seed_env != '\0') {
      // A wrong seed is a *different* fault schedule, not a degraded one:
      // silently defaulting would run chaos repros against the wrong
      // schedule and "reproduce" nothing. Reject the whole plane instead.
      std::fprintf(stderr,
                   "daos: rejecting DAOS_FAULTS: bad DAOS_FAULT_SEED '%s' "
                   "(want a decimal u64)\n",
                   seed_env);
      return nullptr;
    }
  }
  auto plane = std::make_unique<FaultPlane>(seed);
  std::string error;
  if (!plane->Configure(spec, &error)) {
    std::fprintf(stderr, "daos: ignoring bad DAOS_FAULTS: %s\n",
                 error.c_str());
    return nullptr;
  }
  return plane;
}

}  // namespace daos::fault
