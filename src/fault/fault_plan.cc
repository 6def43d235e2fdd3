#include "src/fault/fault_plan.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>

namespace occamy::fault {
namespace {

// A token plus the byte offset of its first character in the original spec,
// so every parse error can point at the offending token's position.
struct Token {
  std::string text;
  size_t offset = 0;
};

std::vector<Token> Split(const std::string& s, char sep, size_t base) {
  std::vector<Token> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back({s.substr(start), base + start});
      return out;
    }
    out.push_back({s.substr(start, pos - start), base + start});
    start = pos + 1;
  }
}

std::string AtByte(size_t offset) { return " at byte " + std::to_string(offset); }

// Time values require an explicit unit suffix so "t=2" can never silently
// mean picoseconds, and must be finite and at most kMaxFaultTime. `what`
// names the parameter class in errors ("time" / "duration"); `token` is the
// full key=value token for the message.
std::optional<std::string> ParseTimeValue(const std::string& token, const std::string& value,
                                          const char* what, Time* out) {
  static constexpr struct {
    const char* suffix;
    Time unit;
  } kUnits[] = {{"ns", kNanosecond}, {"us", kMicrosecond}, {"ms", kMillisecond}, {"s", kSecond}};
  for (const auto& u : kUnits) {
    const size_t n = std::strlen(u.suffix);
    if (value.size() <= n || value.compare(value.size() - n, n, u.suffix) != 0) continue;
    const std::string num = value.substr(0, value.size() - n);
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return "fault spec: bad number in '" + token + "'";
    }
    if (v < 0) {
      return std::string("fault spec: negative ") + what + " in '" + token + "'";
    }
    const double ps = v * static_cast<double>(u.unit);
    if (!(ps <= static_cast<double>(kMaxFaultTime))) {  // also rejects inf and nan
      const std::string cap = " (max " + std::to_string(kMaxFaultTime / kSecond) + "s)";
      return std::string("fault spec: ") + what + " out of range in '" + token + "'" + cap;
    }
    *out = static_cast<Time>(std::llround(ps));
    return std::nullopt;
  }
  return "fault spec: bad " + std::string(what) + " in '" + token +
         "' (need a ns/us/ms/s suffix)";
}

std::optional<std::string> ParseNonNegInt(const std::string& token, const std::string& value,
                                          int* out) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value.empty() || v < 0 || v > 1'000'000) {
    return "fault spec: bad number in '" + token + "'";
  }
  *out = static_cast<int>(v);
  return std::nullopt;
}

std::optional<std::string> ParseSeed(const std::string& token, const std::string& value,
                                     uint64_t* out) {
  if (value.empty() || value[0] == '-') {
    return "fault spec: bad number in '" + token + "'";
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return "fault spec: bad number in '" + token + "'";
  }
  if (errno == ERANGE) {
    return "fault spec: seed out of range in '" + token + "' (want at most 2^64-1)";
  }
  *out = static_cast<uint64_t>(v);
  return std::nullopt;
}

std::optional<std::string> ParseRate(const std::string& token, const std::string& value,
                                     double* out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || value.empty()) {
    return "fault spec: bad number in '" + token + "'";
  }
  if (!(v > 0.0) || v > 1.0) {
    return "fault spec: rate out of range in '" + token + "' (need 0 < rate <= 1)";
  }
  *out = v;
  return std::nullopt;
}

// Like ParseRate but admits 0 (used for loss_good, where "no loss while the
// chain is Good" is the natural default and an explicit 0 should parse).
std::optional<std::string> ParseRate0(const std::string& token, const std::string& value,
                                      double* out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || value.empty()) {
    return "fault spec: bad number in '" + token + "'";
  }
  if (v < 0.0 || v > 1.0) {
    return "fault spec: rate out of range in '" + token + "' (need 0 <= rate <= 1)";
  }
  *out = v;
  return std::nullopt;
}

std::optional<std::string> ParseBool01(const std::string& token, const std::string& value,
                                       bool* out) {
  if (value == "0") {
    *out = false;
    return std::nullopt;
  }
  if (value == "1") {
    *out = true;
    return std::nullopt;
  }
  return "fault spec: bad number in '" + token + "' (need 0 or 1)";
}

// Node names stay symbolic here, but the shape is checked so a typo exits
// 2 at parse time instead of failing at Arm inside a run.
std::optional<std::string> CheckNodeName(const std::string& token, const std::string& value) {
  size_t digits = 0;
  if (value.rfind("sw", 0) == 0) {
    digits = 2;
  } else if (value.rfind("host", 0) == 0) {
    digits = 4;
  } else {
    return "fault spec: bad node in '" + token + "' (expected sw<k> or host<k>)";
  }
  if (value.size() == digits) {
    return "fault spec: bad node in '" + token + "' (expected sw<k> or host<k>)";
  }
  for (size_t i = digits; i < value.size(); ++i) {
    if (value[i] < '0' || value[i] > '9') {
      return "fault spec: bad node in '" + token + "' (expected sw<k> or host<k>)";
    }
  }
  return std::nullopt;
}

bool ParamAllowed(FaultKind kind, const std::string& key) {
  if (key == "t") return true;
  // Instantaneous (restart) and terminator (link_up) events take no dur=.
  if (key == "dur") return kind != FaultKind::kLinkUp && kind != FaultKind::kRestart;
  switch (kind) {
    case FaultKind::kLinkDown:
      return key == "node" || key == "port" || key == "reroute";
    case FaultKind::kLinkUp:
    case FaultKind::kBlackhole:
      return key == "node" || key == "port";
    case FaultKind::kFreeze:
    case FaultKind::kCpFreeze:
      return key == "node" || key == "part";
    case FaultKind::kCpDelay:
      return key == "node" || key == "part" || key == "lag";
    case FaultKind::kRestart:
      return key == "node";
    case FaultKind::kLoss:
    case FaultKind::kCorrupt:
      return key == "rate" || key == "seed";
    case FaultKind::kGilbert:
      return key == "p_gb" || key == "p_bg" || key == "loss_good" || key == "loss_bad" ||
             key == "slot" || key == "seed";
  }
  return false;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kLinkUp:
      return "link_up";
    case FaultKind::kBlackhole:
      return "blackhole";
    case FaultKind::kFreeze:
      return "freeze";
    case FaultKind::kRestart:
      return "restart";
    case FaultKind::kCpFreeze:
      return "cp_freeze";
    case FaultKind::kCpDelay:
      return "cp_delay";
    case FaultKind::kLoss:
      return "loss";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kGilbert:
      return "gilbert";
  }
  return "?";
}

std::optional<std::string> ParseFaultPlan(const std::string& spec, FaultPlan* out) {
  out->events.clear();
  if (spec.empty()) return std::nullopt;
  for (const Token& entry : Split(spec, ';', 0)) {
    if (entry.text.empty()) {
      return "fault spec: empty fault entry (stray ';')" + AtByte(entry.offset);
    }
    const size_t colon = entry.text.find(':');
    const std::string type = entry.text.substr(0, colon);
    FaultEvent ev;
    if (type == "link_down") {
      ev.kind = FaultKind::kLinkDown;
    } else if (type == "link_up") {
      ev.kind = FaultKind::kLinkUp;
    } else if (type == "blackhole") {
      ev.kind = FaultKind::kBlackhole;
    } else if (type == "freeze") {
      ev.kind = FaultKind::kFreeze;
    } else if (type == "restart") {
      ev.kind = FaultKind::kRestart;
    } else if (type == "cp_freeze") {
      ev.kind = FaultKind::kCpFreeze;
    } else if (type == "cp_delay") {
      ev.kind = FaultKind::kCpDelay;
    } else if (type == "loss") {
      ev.kind = FaultKind::kLoss;
    } else if (type == "corrupt") {
      ev.kind = FaultKind::kCorrupt;
    } else if (type == "gilbert") {
      ev.kind = FaultKind::kGilbert;
    } else {
      return "fault spec: unknown fault type '" + type + "'" + AtByte(entry.offset);
    }

    std::set<std::string> seen;
    if (colon != std::string::npos) {
      for (const Token& kv :
           Split(entry.text.substr(colon + 1), ',', entry.offset + colon + 1)) {
        if (kv.text.empty()) {
          return "fault spec: empty parameter in '" + entry.text + "'" + AtByte(kv.offset);
        }
        const size_t eq = kv.text.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == kv.text.size()) {
          return "fault spec: malformed parameter '" + kv.text + "' (expected key=value)" +
                 AtByte(kv.offset);
        }
        const std::string key = kv.text.substr(0, eq);
        const std::string value = kv.text.substr(eq + 1);
        if (!ParamAllowed(ev.kind, key)) {
          return "fault spec: '" + type + "' does not take parameter '" + kv.text + "'" +
                 AtByte(kv.offset);
        }
        if (!seen.insert(key).second) {
          return "fault spec: duplicate parameter '" + kv.text + "'" + AtByte(kv.offset);
        }
        std::optional<std::string> err;
        if (key == "t") {
          err = ParseTimeValue(kv.text, value, "time", &ev.at);
        } else if (key == "dur") {
          err = ParseTimeValue(kv.text, value, "duration", &ev.duration);
        } else if (key == "lag") {
          err = ParseTimeValue(kv.text, value, "lag", &ev.lag);
        } else if (key == "slot") {
          err = ParseTimeValue(kv.text, value, "slot", &ev.slot);
        } else if (key == "node") {
          err = CheckNodeName(kv.text, value);
          if (!err) ev.node = value;
        } else if (key == "port") {
          err = ParseNonNegInt(kv.text, value, &ev.port);
        } else if (key == "part") {
          err = ParseNonNegInt(kv.text, value, &ev.part);
        } else if (key == "rate") {
          err = ParseRate(kv.text, value, &ev.rate);
        } else if (key == "p_gb") {
          err = ParseRate(kv.text, value, &ev.p_gb);
        } else if (key == "p_bg") {
          err = ParseRate(kv.text, value, &ev.p_bg);
        } else if (key == "loss_bad") {
          err = ParseRate(kv.text, value, &ev.loss_bad);
        } else if (key == "loss_good") {
          err = ParseRate0(kv.text, value, &ev.loss_good);
        } else if (key == "reroute") {
          err = ParseBool01(kv.text, value, &ev.reroute);
        } else if (key == "seed") {
          err = ParseSeed(kv.text, value, &ev.seed);
        }
        if (err) return *err + AtByte(kv.offset);
      }
    }

    switch (ev.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
      case FaultKind::kBlackhole:
        if (ev.node.empty()) {
          return "fault spec: '" + type + "' requires parameter 'node'" + AtByte(entry.offset);
        }
        if (ev.port < 0) {
          return "fault spec: '" + type + "' requires parameter 'port'" + AtByte(entry.offset);
        }
        break;
      case FaultKind::kFreeze:
      case FaultKind::kRestart:
      case FaultKind::kCpFreeze:
        if (ev.node.empty()) {
          return "fault spec: '" + type + "' requires parameter 'node'" + AtByte(entry.offset);
        }
        break;
      case FaultKind::kCpDelay:
        if (ev.node.empty()) {
          return "fault spec: '" + type + "' requires parameter 'node'" + AtByte(entry.offset);
        }
        if (ev.lag <= 0) {
          return "fault spec: '" + type + "' requires parameter 'lag'" + AtByte(entry.offset);
        }
        break;
      case FaultKind::kLoss:
      case FaultKind::kCorrupt:
        if (ev.rate <= 0.0) {
          return "fault spec: '" + type + "' requires parameter 'rate'" + AtByte(entry.offset);
        }
        break;
      case FaultKind::kGilbert:
        if (ev.p_gb <= 0.0) {
          return "fault spec: '" + type + "' requires parameter 'p_gb'" + AtByte(entry.offset);
        }
        if (ev.p_bg <= 0.0) {
          return "fault spec: '" + type + "' requires parameter 'p_bg'" + AtByte(entry.offset);
        }
        if (ev.loss_bad <= 0.0) {
          return "fault spec: '" + type + "' requires parameter 'loss_bad'" +
                 AtByte(entry.offset);
        }
        if (ev.slot <= 0) {
          return "fault spec: 'gilbert' requires a positive 'slot'" + AtByte(entry.offset);
        }
        break;
    }

    if (ev.kind == FaultKind::kLinkUp) {
      // Normalize: terminate the latest preceding *permanent* link_down on
      // the same (node, port) by giving it a finite duration. The injector
      // never sees link_up events.
      FaultEvent* match = nullptr;
      for (auto it = out->events.rbegin(); it != out->events.rend(); ++it) {
        if (it->kind == FaultKind::kLinkDown && it->duration == 0 && it->node == ev.node &&
            it->port == ev.port) {
          match = &*it;
          break;
        }
      }
      if (match == nullptr) {
        return "fault spec: link_up with no matching permanent link_down on '" + ev.node +
               "' port " + std::to_string(ev.port) + AtByte(entry.offset);
      }
      if (ev.at <= match->at) {
        return "fault spec: link_up at or before its link_down on '" + ev.node + "' port " +
               std::to_string(ev.port) + AtByte(entry.offset);
      }
      match->duration = ev.at - match->at;
      continue;
    }
    out->events.push_back(std::move(ev));
  }
  return std::nullopt;
}

}  // namespace occamy::fault
