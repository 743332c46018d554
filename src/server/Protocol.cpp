//===- server/Protocol.cpp - bsched_server wire protocol ------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/Json.h"
#include "support/JsonValue.h"

#include <cstdlib>

using namespace bsched;

std::string_view bsched::requestOpName(RequestOp Op) {
  switch (Op) {
  case RequestOp::Compile:
    return "compile";
  case RequestOp::Stats:
    return "stats";
  case RequestOp::Metrics:
    return "metrics";
  case RequestOp::Ping:
    return "ping";
  }
  return "compile";
}

namespace {

void pushError(std::vector<Diagnostic> &Diags, DiagCode Code,
               std::string Message) {
  Diags.push_back({0, 0, std::move(Message), Severity::Error, Code});
}

void typeError(std::vector<Diagnostic> &Diags, std::string_view Key,
               std::string_view Expected, const JsonValue &V) {
  pushError(Diags, DiagCode::ProtocolBadValue,
            "request key '" + std::string(Key) + "' expects a " +
                std::string(Expected) + ", got " + std::string(V.kindName()));
}

bool readBool(std::vector<Diagnostic> &Diags, std::string_view Key,
              const JsonValue &V, bool &Out) {
  if (!V.isBool()) {
    typeError(Diags, Key, "boolean", V);
    return false;
  }
  Out = V.asBool();
  return true;
}

bool readString(std::vector<Diagnostic> &Diags, std::string_view Key,
                const JsonValue &V, std::string &Out) {
  if (!V.isString()) {
    typeError(Diags, Key, "string", V);
    return false;
  }
  Out = V.asString();
  return true;
}

bool readDouble(std::vector<Diagnostic> &Diags, std::string_view Key,
                const JsonValue &V, double &Out) {
  if (!V.isNumber()) {
    typeError(Diags, Key, "number", V);
    return false;
  }
  Out = V.asNumber();
  return true;
}

bool readUnsigned(std::vector<Diagnostic> &Diags, std::string_view Key,
                  const JsonValue &V, unsigned &Out) {
  uint64_t Wide;
  if (!V.isNumber() || !V.asUInt64(Wide) || Wide > 0xFFFFFFFFull) {
    typeError(Diags, Key, "non-negative integer", V);
    return false;
  }
  Out = static_cast<unsigned>(Wide);
  return true;
}

void checkSchemaVersion(std::vector<Diagnostic> &Diags, const JsonValue &V) {
  uint64_t Version = 0;
  if (!V.isNumber() || !V.asUInt64(Version)) {
    typeError(Diags, "schema_version", "non-negative integer", V);
    return;
  }
  if (Version != CompileRequest::SchemaVersion)
    pushError(Diags, DiagCode::ProtocolSchemaVersion,
              "unsupported schema_version " + std::to_string(Version) +
                  " (this build speaks v" +
                  std::to_string(CompileRequest::SchemaVersion) + ")");
}

} // namespace

std::string CompileRequest::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema_version").value(SchemaVersion);
  W.key("id").value(Id);
  W.key("op").value(requestOpName(Op));
  if (Op == RequestOp::Compile) {
    W.key("kernel").value(Kernel);
    W.key("config").rawValue(Config.toJson());
    W.key("want_schedule").value(WantSchedule);
    W.key("want_metrics").value(WantMetrics);
  }
  if (Op == RequestOp::Metrics && MetricsFormat != "json")
    W.key("metrics_format").value(MetricsFormat);
  W.endObject();
  return W.str();
}

ErrorOr<CompileRequest> CompileRequest::fromJson(std::string_view Json,
                                                 std::string *Id) {
  if (Id)
    Id->clear();
  ErrorOr<JsonValue> Doc = parseJson(Json);
  if (!Doc)
    return Doc.takeErrors();
  if (!Doc->isObject())
    return Diagnostic{0, 0,
                      "request must be a JSON object, got " +
                          std::string(Doc->kindName()),
                      Severity::Error, DiagCode::ProtocolBadValue};

  CompileRequest Request;
  std::vector<Diagnostic> Diags;
  for (const JsonValue::Member &M : Doc->members()) {
    const std::string &Key = M.first;
    const JsonValue &V = M.second;
    if (Key == "schema_version") {
      checkSchemaVersion(Diags, V);
    } else if (Key == "id") {
      readString(Diags, Key, V, Request.Id);
    } else if (Key == "op") {
      std::string Name;
      if (readString(Diags, Key, V, Name)) {
        if (Name == "compile")
          Request.Op = RequestOp::Compile;
        else if (Name == "stats")
          Request.Op = RequestOp::Stats;
        else if (Name == "metrics")
          Request.Op = RequestOp::Metrics;
        else if (Name == "ping")
          Request.Op = RequestOp::Ping;
        else
          pushError(Diags, DiagCode::ProtocolBadValue,
                    "unknown op '" + Name +
                        "' (expected compile, stats, metrics or ping)");
      }
    } else if (Key == "kernel") {
      readString(Diags, Key, V, Request.Kernel);
    } else if (Key == "config") {
      // One schema implementation: the embedded config subtree goes
      // through PipelineConfig's own parser.
      ErrorOr<PipelineConfig> Parsed = PipelineConfig::fromJsonValue(V);
      if (Parsed)
        Request.Config = std::move(*Parsed);
      else
        for (const Diagnostic &D : Parsed.errors())
          Diags.push_back(D);
    } else if (Key == "want_schedule") {
      readBool(Diags, Key, V, Request.WantSchedule);
    } else if (Key == "want_metrics") {
      readBool(Diags, Key, V, Request.WantMetrics);
    } else if (Key == "metrics_format") {
      if (readString(Diags, Key, V, Request.MetricsFormat) &&
          Request.MetricsFormat != "json" &&
          Request.MetricsFormat != "prometheus")
        pushError(Diags, DiagCode::ProtocolBadValue,
                  "unknown metrics_format '" + Request.MetricsFormat +
                      "' (expected json or prometheus)");
    } else {
      pushError(Diags, DiagCode::ProtocolUnknownKey,
                "unknown request key '" + Key + "'");
    }
  }
  if (Id)
    *Id = Request.Id;
  if (!Diags.empty())
    return Diags;
  return Request;
}

std::string CompileResponse::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema_version").value(CompileRequest::SchemaVersion);
  W.key("id").value(Id);
  W.key("ok").value(Ok);
  W.key("cache_hit").value(CacheHit);
  W.key("degradation").value(Degradation);
  W.key("static_instructions").value(StaticInstructions);
  W.key("static_spills").value(StaticSpills);
  W.key("dynamic_instructions").valueFixed(DynamicInstructions, 3);
  W.key("dynamic_spills").valueFixed(DynamicSpills, 3);
  W.key("wall_ms").valueFixed(WallMs, 3);
  if (!Schedule.empty())
    W.key("schedule").value(Schedule);
  W.key("diagnostics").beginArray();
  for (const Diagnostic &D : Diags) {
    W.beginObject();
    W.key("code").value(diagCodeString(D.Code));
    W.key("severity").value(severityName(D.Sev));
    W.key("line").value(D.Line);
    W.key("col").value(D.Col);
    W.key("message").value(D.Message);
    W.endObject();
  }
  W.endArray();
  if (!StatsJson.empty())
    W.key("stats").rawValue(StatsJson);
  if (!MetricsText.empty())
    W.key("metrics_text").value(MetricsText);
  W.endObject();
  return W.str();
}

ErrorOr<CompileResponse> CompileResponse::fromJson(std::string_view Json) {
  ErrorOr<JsonValue> Doc = parseJson(Json);
  if (!Doc)
    return Doc.takeErrors();
  if (!Doc->isObject())
    return Diagnostic{0, 0,
                      "response must be a JSON object, got " +
                          std::string(Doc->kindName()),
                      Severity::Error, DiagCode::ProtocolBadValue};

  CompileResponse Response;
  std::vector<Diagnostic> Diags;
  for (const JsonValue::Member &M : Doc->members()) {
    const std::string &Key = M.first;
    const JsonValue &V = M.second;
    if (Key == "schema_version") {
      checkSchemaVersion(Diags, V);
    } else if (Key == "id") {
      readString(Diags, Key, V, Response.Id);
    } else if (Key == "ok") {
      readBool(Diags, Key, V, Response.Ok);
    } else if (Key == "cache_hit") {
      readBool(Diags, Key, V, Response.CacheHit);
    } else if (Key == "degradation") {
      readString(Diags, Key, V, Response.Degradation);
    } else if (Key == "static_instructions") {
      readUnsigned(Diags, Key, V, Response.StaticInstructions);
    } else if (Key == "static_spills") {
      readUnsigned(Diags, Key, V, Response.StaticSpills);
    } else if (Key == "dynamic_instructions") {
      readDouble(Diags, Key, V, Response.DynamicInstructions);
    } else if (Key == "dynamic_spills") {
      readDouble(Diags, Key, V, Response.DynamicSpills);
    } else if (Key == "wall_ms") {
      readDouble(Diags, Key, V, Response.WallMs);
    } else if (Key == "schedule") {
      readString(Diags, Key, V, Response.Schedule);
    } else if (Key == "diagnostics") {
      if (!V.isArray()) {
        typeError(Diags, Key, "array", V);
        continue;
      }
      for (const JsonValue &E : V.elements()) {
        if (!E.isObject()) {
          typeError(Diags, "diagnostics[]", "object", E);
          continue;
        }
        Diagnostic D;
        if (const JsonValue *Code = E.find("code"); Code && Code->isString()) {
          // "BS201" -> numeric code; unknown numbers keep their value (the
          // enum is open by design for forward compatibility).
          const std::string &Text = Code->asString();
          if (Text.size() > 2 && Text[0] == 'B' && Text[1] == 'S')
            D.Code = static_cast<DiagCode>(std::atoi(Text.c_str() + 2));
        }
        if (const JsonValue *Sev = E.find("severity"); Sev && Sev->isString()) {
          const std::string &Name = Sev->asString();
          D.Sev = Name == "error"     ? Severity::Error
                  : Name == "warning" ? Severity::Warning
                                      : Severity::Note;
        }
        if (const JsonValue *Line = E.find("line")) {
          uint64_t N = 0;
          if (Line->isNumber() && Line->asUInt64(N))
            D.Line = static_cast<unsigned>(N);
        }
        if (const JsonValue *Col = E.find("col")) {
          uint64_t N = 0;
          if (Col->isNumber() && Col->asUInt64(N))
            D.Col = static_cast<unsigned>(N);
        }
        if (const JsonValue *Msg = E.find("message"); Msg && Msg->isString())
          D.Message = Msg->asString();
        Response.Diags.push_back(std::move(D));
      }
    } else if (Key == "stats") {
      // Kept opaque: clients treat stats as a raw document.
    } else if (Key == "metrics_text") {
      readString(Diags, Key, V, Response.MetricsText);
    } else {
      pushError(Diags, DiagCode::ProtocolUnknownKey,
                "unknown response key '" + Key + "'");
    }
  }
  if (!Diags.empty())
    return Diags;
  return Response;
}
