#ifndef TELEKIT_OBS_OBS_H_
#define TELEKIT_OBS_OBS_H_

/// Umbrella header for the telekit observability layer:
///   - obs/log.h      TELEKIT_LOG(level) structured logging
///   - obs/metrics.h  MetricsRegistry: counters / gauges / log-bucketed
///                    quantile histograms
///   - obs/trace.h    RAII Span nesting + Chrome trace_event collection
///                    (per-step work), request trace ids
///   - obs/admin.h    background HTTP admin server (/healthz /metrics ...)
///                    + Prometheus text exposition renderer
///   - obs/timeseries.h  background sampler -> per-metric ring buffers,
///                    rate derivation, /timeseriesz history endpoint
///   - obs/slo.h      declarative SLOs, multi-window burn-rate alerting,
///                    /alertz state machine (pending -> firing -> resolved)
///   - obs/requestlog.h  wide-event request log (/requestz, /tracez as a
///                    Chrome trace, --request-log NDJSON sink) + Prometheus
///                    exemplar store
///   - obs/spanstore.h  bounded ring of completed distributed-trace spans
///                    (/spanz), merged fleet-wide by the router's /tracezd
///   - obs/report.h   --obs-json artifact (metrics + spans + traceEvents)
///
/// Conventions used across the codebase:
///   - metric names are "<area>/<what>" (e.g. "train/step_ms"); histograms
///     measuring time end in "_ms"
///   - span names are "<stage>/<what>" where stage is one of
///     tokenize / encode / train / eval / zoo / bench
///   - hot per-op paths (tensor dispatch) use cached Counter references
///     only; per-step paths may use Span + histogram; a served request
///     records its timing in the request log, the span store and the
///     exemplar store, never in a Span.

#include "obs/admin.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/requestlog.h"
#include "obs/slo.h"
#include "obs/spanstore.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

#endif  // TELEKIT_OBS_OBS_H_
