#include "serve/protocol.h"

#include <climits>
#include <cmath>
#include <utility>

#include "obs/trace.h"

namespace telekit {
namespace serve {

std::string ServiceModeName(core::ServiceMode mode) {
  switch (mode) {
    case core::ServiceMode::kOnlyName:
      return "name";
    case core::ServiceMode::kEntityNoAttr:
      return "entity";
    case core::ServiceMode::kEntityWithAttr:
      return "entity_attr";
  }
  return "unknown";
}

bool ParseServiceMode(const std::string& name, core::ServiceMode* mode) {
  if (name == "name") {
    *mode = core::ServiceMode::kOnlyName;
  } else if (name == "entity") {
    *mode = core::ServiceMode::kEntityNoAttr;
  } else if (name == "entity_attr") {
    *mode = core::ServiceMode::kEntityWithAttr;
  } else {
    return false;
  }
  return true;
}

bool ParseTaskOp(const std::string& name, TaskOp* op) {
  if (name == "encode") {
    *op = TaskOp::kEncode;
  } else if (name == "rca") {
    *op = TaskOp::kRca;
  } else if (name == "eap") {
    *op = TaskOp::kEap;
  } else if (name == "fct") {
    *op = TaskOp::kFct;
  } else if (name == "retrieve") {
    *op = TaskOp::kRetrieve;
  } else if (name == "troubleshoot") {
    *op = TaskOp::kTroubleshoot;
  } else {
    return false;
  }
  return true;
}

namespace {

/// A number field narrowed to int: a non-finite or out-of-range value would
/// make the cast undefined, so it is rejected, naming the field.
Status ParseIntField(const obs::JsonValue& value, const char* name,
                     double min, int* out) {
  if (!value.is_number() || !std::isfinite(value.AsNumber()) ||
      value.AsNumber() < min || value.AsNumber() > INT_MAX) {
    return Status::InvalidArgument(
        std::string("'") + name + "' must be a number in [" +
        std::to_string(static_cast<int64_t>(min)) + ", " +
        std::to_string(INT_MAX) + "]: " + value.Dump());
  }
  *out = static_cast<int>(value.AsNumber());
  return Status::Ok();
}

}  // namespace

bool ParsePrecision(const std::string& name, Precision* precision) {
  if (name == "fp32") {
    *precision = Precision::kFp32;
  } else if (name == "int8") {
    *precision = Precision::kInt8;
  } else {
    return false;
  }
  return true;
}

Status ParseRequest(const obs::JsonValue& json, Request* request) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  *request = Request();
  if (const obs::JsonValue* op = json.Find("op")) {
    if (!op->is_string() || !ParseTaskOp(op->AsString(), &request->op)) {
      return Status::InvalidArgument(
          "bad op (want encode|rca|eap|fct|retrieve|troubleshoot): " +
          op->Dump());
    }
  }
  const obs::JsonValue* text = json.Find("text");
  if (text == nullptr || !text->is_string()) {
    return Status::InvalidArgument("missing string field 'text'");
  }
  request->text = text->AsString();
  if (request->text.empty()) {
    return Status::InvalidArgument("'text' must be non-empty");
  }
  if (const obs::JsonValue* mode = json.Find("mode")) {
    if (!mode->is_string() ||
        !ParseServiceMode(mode->AsString(), &request->mode)) {
      return Status::InvalidArgument(
          "bad mode (want name|entity|entity_attr): " + mode->Dump());
    }
  }
  if (const obs::JsonValue* model = json.Find("model")) {
    if (!model->is_string()) {
      return Status::InvalidArgument("'model' must be a string: " +
                                     model->Dump());
    }
    request->model = model->AsString();
  }
  if (const obs::JsonValue* precision = json.Find("precision")) {
    if (!precision->is_string() ||
        !ParsePrecision(precision->AsString(), &request->precision)) {
      return Status::InvalidArgument("bad precision (want fp32|int8): " +
                                     precision->Dump());
    }
  }
  if (const obs::JsonValue* top_k = json.Find("top_k")) {
    TELEKIT_RETURN_IF_ERROR(
        ParseIntField(*top_k, "top_k", INT_MIN, &request->top_k));
  }
  if (const obs::JsonValue* ef = json.Find("ef_search")) {
    TELEKIT_RETURN_IF_ERROR(
        ParseIntField(*ef, "ef_search", 0, &request->ef_search));
  }
  if (const obs::JsonValue* deadline = json.Find("deadline_ms")) {
    if (!deadline->is_number() || !(deadline->AsNumber() >= 0.0) ||
        deadline->AsNumber() > kMaxDeadlineMs) {
      return Status::InvalidArgument(
          "'deadline_ms' must be a number in [0, 1e9]: " + deadline->Dump());
    }
    request->deadline_ms = deadline->AsNumber();
  }
  if (const obs::JsonValue* trace = json.Find("trace")) {
    if (trace->is_string()) {
      if (!obs::ParseTraceIdHex(trace->AsString(), &request->trace_id)) {
        return Status::InvalidArgument(
            "'trace' must be 1-16 hex digits or a boolean: " + trace->Dump());
      }
      request->echo_timing = true;
    } else if (trace->is_bool()) {
      // true: server assigns the id; either way the client asked to trace.
      request->echo_timing = trace->AsBool();
    } else if (!trace->is_null()) {
      return Status::InvalidArgument(
          "'trace' must be a hex string or boolean: " + trace->Dump());
    }
  }
  if (const obs::JsonValue* parent = json.Find("parent_span")) {
    if (parent->is_string()) {
      if (!obs::ParseTraceIdHex(parent->AsString(),
                                &request->parent_span)) {
        return Status::InvalidArgument(
            "'parent_span' must be 1-16 hex digits: " + parent->Dump());
      }
    } else if (!parent->is_null()) {
      return Status::InvalidArgument(
          "'parent_span' must be a hex string: " + parent->Dump());
    }
  }
  return Status::Ok();
}

Status ParseRequestLine(const std::string& line, Request* request) {
  obs::JsonValue json;
  std::string error;
  if (!obs::JsonValue::Parse(line, &json, &error)) {
    return Status::InvalidArgument("bad JSON: " + error);
  }
  return ParseRequest(json, request);
}

namespace {

void SetId(obs::JsonValue* out, const obs::JsonValue* id) {
  out->Set("id", id != nullptr ? *id : obs::JsonValue());
}

void SetTrace(obs::JsonValue* out, uint64_t trace_id) {
  out->Set("trace", trace_id != 0
                        ? obs::JsonValue(obs::TraceIdToHex(trace_id))
                        : obs::JsonValue());
}

}  // namespace

obs::JsonValue ResponseToJson(const Request& request, const Response& response,
                              const obs::JsonValue* id) {
  if (!response.status.ok()) {
    obs::JsonValue out = ErrorToJson(response.status, id, response.trace_id);
    if (request.echo_timing) {
      obs::JsonValue timing = obs::JsonValue::Object();
      timing.Set("queue_us",
                 obs::JsonValue(static_cast<double>(response.queue_ms * 1e3)));
      timing.Set("total_us",
                 obs::JsonValue(static_cast<double>(response.total_ms * 1e3)));
      out.Set("timing", std::move(timing));
    }
    return out;
  }
  obs::JsonValue out = obs::JsonValue::Object();
  SetId(&out, id);
  SetTrace(&out, response.trace_id);
  out.Set("ok", obs::JsonValue(true));
  out.Set("op", obs::JsonValue(TaskOpName(request.op)));
  if (request.op == TaskOp::kEncode) {
    obs::JsonValue vec = obs::JsonValue::Array();
    for (float v : response.vector) {
      vec.Append(obs::JsonValue(static_cast<double>(v)));
    }
    out.Set("vector", std::move(vec));
  } else {
    // retrieve answers with docs only; troubleshoot with docs (the
    // retrieved context) plus results (the RCA verdict over their
    // evidence); rca/eap/fct with results only.
    if (request.op == TaskOp::kRetrieve ||
        request.op == TaskOp::kTroubleshoot) {
      obs::JsonValue docs = obs::JsonValue::Array();
      for (const RetrievedDoc& doc : response.docs) {
        obs::JsonValue item = obs::JsonValue::Object();
        item.Set("doc_id", obs::JsonValue(doc.doc_id));
        item.Set("title", obs::JsonValue(doc.title));
        item.Set("kind", obs::JsonValue(doc.kind));
        item.Set("score", obs::JsonValue(static_cast<double>(doc.score)));
        docs.Append(std::move(item));
      }
      out.Set("docs", std::move(docs));
    }
    if (request.op != TaskOp::kRetrieve) {
      obs::JsonValue results = obs::JsonValue::Array();
      for (const tasks::ScoredCandidate& candidate : response.results) {
        obs::JsonValue item = obs::JsonValue::Object();
        item.Set("name", obs::JsonValue(candidate.name));
        item.Set("score",
                 obs::JsonValue(static_cast<double>(candidate.score)));
        results.Append(std::move(item));
      }
      out.Set("results", std::move(results));
    }
  }
  out.Set("cache_hit", obs::JsonValue(response.cache_hit));
  out.Set("queue_ms", obs::JsonValue(response.queue_ms));
  out.Set("total_ms", obs::JsonValue(response.total_ms));
  if (request.echo_timing) {
    obs::JsonValue timing = obs::JsonValue::Object();
    timing.Set("queue_us",
               obs::JsonValue(static_cast<double>(response.queue_ms * 1e3)));
    timing.Set("batch_us",
               obs::JsonValue(static_cast<double>(response.batch_ms * 1e3)));
    timing.Set("encode_us",
               obs::JsonValue(static_cast<double>(response.encode_ms * 1e3)));
    timing.Set("score_us",
               obs::JsonValue(static_cast<double>(response.score_ms * 1e3)));
    if (request.op == TaskOp::kRetrieve ||
        request.op == TaskOp::kTroubleshoot) {
      timing.Set("search_us",
                 obs::JsonValue(static_cast<double>(response.search_ms * 1e3)));
    }
    timing.Set("total_us",
               obs::JsonValue(static_cast<double>(response.total_ms * 1e3)));
    out.Set("timing", std::move(timing));
  }
  return out;
}

obs::JsonValue ErrorToJson(const Status& status, const obs::JsonValue* id,
                           uint64_t trace_id) {
  obs::JsonValue out = obs::JsonValue::Object();
  SetId(&out, id);
  SetTrace(&out, trace_id);
  out.Set("ok", obs::JsonValue(false));
  obs::JsonValue error = obs::JsonValue::Object();
  error.Set("code", obs::JsonValue(static_cast<int>(status.code())));
  error.Set("message", obs::JsonValue(status.message()));
  error.Set("status", obs::JsonValue(status.ToString()));
  out.Set("error", std::move(error));
  return out;
}

}  // namespace serve
}  // namespace telekit
