#include "service/snapshot.h"

#include "service/protocol.h"
#include "util/fingerprint.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace fdx {

namespace {

/// Version 3 stores the options as their canonical key under a
/// checksum. Older versions are not read.
constexpr int kSessionSnapshotVersion = 3;
constexpr int kCacheSnapshotVersion = 1;

/// Checksum over everything a snapshot restores.
std::string SessionChecksum(const std::string& id,
                            const std::vector<std::string>& names,
                            const std::string& options_key,
                            const std::string& threads,
                            const std::string& time_budget) {
  Fingerprint fp;
  fp.UpdateString("session-v3");
  fp.UpdateString(id);
  fp.UpdateU64(names.size());
  for (const std::string& name : names) fp.UpdateString(name);
  fp.UpdateString(options_key);
  fp.UpdateString(threads);
  fp.UpdateString(time_budget);
  return fp.Hex();
}

}  // namespace

std::string EncodeSessionSnapshot(const std::string& id, const Schema& schema,
                                  const FdxOptions& options) {
  const std::string key = CanonicalOptionsKey(options);
  const std::string threads = std::to_string(options.threads);
  const std::string time_budget = ExactDouble(options.time_budget_seconds);
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Integer(kSessionSnapshotVersion);
  json.Key("session");
  json.String(id);
  json.Key("schema");
  json.BeginArray();
  for (const std::string& name : schema.names()) json.String(name);
  json.EndArray();
  json.Key("options_key");
  json.String(key);
  json.Key("threads");
  json.String(threads);
  json.Key("time_budget_seconds");
  json.String(time_budget);
  json.Key("checksum");
  json.String(SessionChecksum(id, schema.names(), key, threads, time_budget));
  json.EndObject();
  return json.TakeString();
}

Result<SessionSnapshot> DecodeSessionSnapshot(const std::string& text) {
  FDX_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("snapshot: document must be an object");
  }
  const int64_t version = static_cast<int64_t>(root.NumberOr("version", 0));
  if (version != kSessionSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot: unsupported version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kSessionSnapshotVersion) + ")");
  }
  SessionSnapshot snapshot;
  snapshot.id = root.StringOr("session", "");
  if (snapshot.id.empty()) {
    return Status::InvalidArgument("snapshot: missing session id");
  }
  const JsonValue* schema_json = root.Find("schema");
  if (schema_json == nullptr || !schema_json->is_array() ||
      schema_json->array().empty()) {
    return Status::InvalidArgument("snapshot: missing schema");
  }
  std::vector<std::string> names;
  names.reserve(schema_json->array().size());
  for (const JsonValue& name : schema_json->array()) {
    if (!name.is_string() || name.string_value().empty()) {
      return Status::InvalidArgument("snapshot: schema names must be strings");
    }
    names.push_back(name.string_value());
  }
  const std::string key = root.StringOr("options_key", "");
  const std::string threads = root.StringOr("threads", "");
  const std::string time_budget = root.StringOr("time_budget_seconds", "");
  if (root.StringOr("checksum", "") !=
      SessionChecksum(snapshot.id, names, key, threads, time_budget)) {
    return Status::InvalidArgument(
        "snapshot: checksum mismatch (corrupted or edited file)");
  }
  snapshot.schema = Schema(std::move(names));
  FDX_ASSIGN_OR_RETURN(snapshot.options, ParseOptionsKey(key));
  if (!ParseExact(threads, &snapshot.options.threads) ||
      !ParseExact(time_budget, &snapshot.options.time_budget_seconds)) {
    return Status::InvalidArgument(
        "snapshot: malformed threads or time_budget_seconds");
  }
  return snapshot;
}

std::string EncodeCacheSnapshot(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Integer(kCacheSnapshotVersion);
  json.Key("entries");
  json.BeginArray();
  for (const auto& [key, payload] : entries) {
    json.BeginArray();
    json.String(key);
    json.String(payload);
    json.EndArray();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

Result<std::vector<std::pair<std::string, std::string>>> DecodeCacheSnapshot(
    const std::string& text) {
  FDX_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("cache snapshot: document must be an object");
  }
  const int64_t version = static_cast<int64_t>(root.NumberOr("version", 0));
  if (version != kCacheSnapshotVersion) {
    return Status::InvalidArgument("cache snapshot: unsupported version " +
                                   std::to_string(version));
  }
  const JsonValue* entries_json = root.Find("entries");
  if (entries_json == nullptr || !entries_json->is_array()) {
    return Status::InvalidArgument("cache snapshot: missing entries");
  }
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(entries_json->array().size());
  for (const JsonValue& entry : entries_json->array()) {
    if (!entry.is_array() || entry.array().size() != 2 ||
        !entry.array()[0].is_string() || !entry.array()[1].is_string()) {
      return Status::InvalidArgument(
          "cache snapshot: entries must be [key, payload] string pairs");
    }
    entries.emplace_back(entry.array()[0].string_value(),
                         entry.array()[1].string_value());
  }
  return entries;
}

}  // namespace fdx
