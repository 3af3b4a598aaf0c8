#ifndef TELEKIT_SERVE_PROTOCOL_H_
#define TELEKIT_SERVE_PROTOCOL_H_

#include <string>

#include "common/status.h"
#include "obs/json.h"
#include "serve/engine.h"

namespace telekit {
namespace serve {

/// Newline-delimited JSON wire protocol for telekit_serve. One request
/// object per line in, one response object per line out:
///
///   {"op": "rca", "text": "ospf neighbor down", "top_k": 3}
///   -> {"id": null, "ok": true, "op": "rca", "results": [
///        {"name": "...", "score": 0.93}, ...], "cache_hit": false, ...}
///
/// Fields: `op` ("encode" | "rca" | "eap" | "fct" | "retrieve" |
/// "troubleshoot", default "encode"), `text` (required), `mode` ("name" |
/// "entity" | "entity_attr", default "entity"), `model` (variant name,
/// e.g. "telebert" | "ktelebert_stl"; "" = server default), `precision`
/// ("fp32" | "int8"; omitted = the server's --precision default), `top_k`,
/// `deadline_ms`, `ef_search` (retrieve/troubleshoot: per-request ANN beam
/// width, 0/omitted = the index default), a free-form `id` echoed back for
/// client-side correlation, and an optional `trace` field: a 16-hex-digit
/// string supplies the request's trace id (64-bit ids ride JSON as hex
/// strings — JSON numbers are doubles), `true` asks the server to assign
/// one. Either form also opts the response into a per-stage `timing`
/// breakdown. Every response carries the request's trace id back as
/// `trace` (hex, null only when no id was ever assigned).
///
/// Distributed tracing adds an optional `parent_span` field (hex, same
/// encoding as `trace`): the caller-side span this hop nests under. The
/// router stamps a distinct parent_span per forwarding attempt so the
/// replica's serve spans attach to the right retry/hedge leg in the
/// assembled cross-process trace.
///
/// The index-backed ops (DESIGN.md §12) answer with a `docs` array
/// ({"doc_id", "title", "kind", "score"}, descending score): retrieve
/// returns docs only; troubleshoot returns docs plus `results` — the RCA
/// verdict ranked over the union of the retrieved docs' evidence alarms.

/// Largest `deadline_ms` a request may carry (1e9 ms, about 11.6 days),
/// also the ceiling of telekit_router's --deadline-ms. A steady_clock
/// deadline is int64 nanoseconds, which a much larger budget overflows.
inline constexpr double kMaxDeadlineMs = 1e9;

/// Parses one request line. On error the returned Status describes the
/// problem and `request` is unspecified. A non-finite `top_k`, `ef_search`
/// or `deadline_ms`, a `top_k` or `ef_search` outside int, and a
/// `deadline_ms` above kMaxDeadlineMs are INVALID_ARGUMENT.
Status ParseRequest(const obs::JsonValue& json, Request* request);

/// Convenience: parse from raw text (must be a JSON object).
Status ParseRequestLine(const std::string& line, Request* request);

/// Serializes a response; `id` is echoed verbatim (null when absent in the
/// request) and `trace` carries the response's trace id in hex. Errors come
/// back as {"ok": false, "error": {"code", "message"}} — still with `id`
/// and `trace`. When the request asked for timing (`echo_timing`) the reply
/// gains {"timing": {"queue_us", "batch_us", "encode_us", "score_us",
/// "total_us"}}, where `batch_us` is the request's time after the queue
/// (Response::batch_ms).
obs::JsonValue ResponseToJson(const Request& request, const Response& response,
                              const obs::JsonValue* id);

/// Error reply for lines that never produced a Request (parse failures).
/// `trace_id` 0 (no id ever assigned) serializes as a null `trace`.
obs::JsonValue ErrorToJson(const Status& status, const obs::JsonValue* id,
                           uint64_t trace_id = 0);

/// Round-trips a ServiceMode to/from its wire name.
std::string ServiceModeName(core::ServiceMode mode);
bool ParseServiceMode(const std::string& name, core::ServiceMode* mode);

/// Round-trips a TaskOp from its wire name (TaskOpName is the inverse).
bool ParseTaskOp(const std::string& name, TaskOp* op);

/// Parses a request "precision" field: "fp32" | "int8" ("default" is not
/// a wire value — omit the field to use the server default).
bool ParsePrecision(const std::string& name, Precision* precision);

}  // namespace serve
}  // namespace telekit

#endif  // TELEKIT_SERVE_PROTOCOL_H_
