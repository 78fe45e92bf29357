#include "obs/snapshot.hpp"

#include <cstdio>
#include <fstream>

#ifndef CKSUM_GIT_DESCRIBE
#define CKSUM_GIT_DESCRIBE "unknown"
#endif

namespace cksum::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

std::string metrics_json(const Snapshot& snap) {
  std::string out = "{";
  bool first = true;
  for (const MetricValue& m : snap.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(m.name) + "\": {\"kind\": \"" +
           std::string(name(m.kind)) + "\", \"tag\": \"" +
           std::string(name(m.tag)) + "\", ";
    switch (m.kind) {
      case Kind::kCounter:
        out += "\"value\": " + std::to_string(m.value);
        break;
      case Kind::kGauge:
        out += "\"value\": " + std::to_string(m.gauge);
        break;
      case Kind::kHistogram: {
        out += "\"count\": " + std::to_string(m.value) +
               ", \"sum\": " + std::to_string(m.sum) + ", \"buckets\": [";
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          if (i != 0) out += ", ";
          out += std::to_string(m.buckets[i]);
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::vector<CounterDelta> counter_deltas(const Snapshot& before,
                                         const Snapshot& after) {
  std::vector<CounterDelta> out;
  for (std::size_t i = 0; i < after.metrics.size(); ++i) {
    const MetricValue& m = after.metrics[i];
    if (m.kind != Kind::kCounter || m.tag != Tag::kDeterministic) continue;
    // Registration is append-only, so a later snapshot of a registry
    // (with the same tag filter) extends an earlier one: the same index
    // names the same metric. Only snapshots that do not line up pay
    // for a search by name.
    const MetricValue* b = nullptr;
    if (i < before.metrics.size() && before.metrics[i].name == m.name)
      b = &before.metrics[i];
    else
      b = before.find(m.name);
    const std::uint64_t prev = b != nullptr ? b->value : 0;
    if (m.value > prev) out.push_back({m.name, m.value - prev});
  }
  return out;
}

std::string git_describe() { return CKSUM_GIT_DESCRIBE; }

std::string manifest_json(const RunInfo& info, const Snapshot& snap) {
  char wall[32];
  std::snprintf(wall, sizeof wall, "%.6f", info.wall_seconds);
  std::string out = "{\n";
  out += "  \"schema\": \"" + std::string(kManifestSchema) + "\",\n";
  out += "  \"tool\": \"" + json_escape(info.tool) + "\",\n";
  out += "  \"corpus\": \"" + json_escape(info.corpus) + "\",\n";
  out += "  \"seed\": " + std::to_string(info.seed) + ",\n";
  out += "  \"threads\": " + std::to_string(info.threads) + ",\n";
  out += "  \"git\": \"" + json_escape(git_describe()) + "\",\n";
  out += "  \"wall_seconds\": " + std::string(wall) + ",\n";
  out += "  \"metrics\": " + metrics_json(snap);
  if (!info.extra_json.empty()) out += ",\n  " + info.extra_json;
  out += "\n}\n";
  return out;
}

bool write_manifest(const std::string& path, const RunInfo& info,
                    const Snapshot& snap) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << manifest_json(info, snap);
  f.flush();
  return static_cast<bool>(f);
}

}  // namespace cksum::obs
