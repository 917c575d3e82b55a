(** Read side of the observability files: quantile estimation over
    histogram snapshots, and the two offline
    tools over captured [--trace]/[--metrics] files — {!check}, the
    schema behind [potx obs-check], and {!summarise}, the summary
    behind [potx obs-report].

    Quantiles are estimated by linear interpolation inside the bucket
    containing the target rank, so they are a deterministic function
    of the (deterministic) bucket counts — exact when observations
    sit on bucket edges, within one bucket width otherwise.  The
    unbounded overflow bucket reports its lower edge (a lower
    bound). *)

val quantile : Metrics.histogram_snapshot -> float -> float
(** [quantile h q] for [q] in [0,1]; [0.0] on an empty histogram. *)

(** {1 Reading captured files} *)

val metric_of_json : Json.t -> (string * Metrics.value) option
(** Inverse of {!Metrics.json_of_metric}; [None] on non-metric
    JSON.  {!Profile.event_of_json} is its counterpart for spans. *)

(** {1 Lookup helpers over a parsed metric list} *)

val counter_of : string -> (string * Metrics.value) list -> int option

val gauge_of : string -> (string * Metrics.value) list -> float option

val pool_names : (string * Metrics.value) list -> string list
(** Pools that published [exec.pool.<pool>.up_s]. *)

val pool_occupancy : pool:string -> (string * Metrics.value) list -> float option
(** busy worker-seconds / (uptime × workers); [None] until the pool
    shut down (up_s is published at shutdown). *)

val cache_hit_rate : (string * Metrics.value) list -> float option
(** hits / (hits + misses) from [litho.cache.*]; [None] when the
    cache was never consulted. *)

(** {1 The capture schema ([potx obs-check])} *)

type verdict = {
  summary : string list;  (** one line per checked file *)
  problems : string list;  (** empty when the capture passes *)
}

val check :
  ?trace:string -> ?metrics:string -> ?require_nonzero:string list -> unit -> verdict
(** Validate a captured pair against the schema.  Both files are read
    as JSONL: every non-blank line must parse, and a problem names the
    file and the 1-based line (blank lines counted).

    A trace passes when every line parses as a span event with a
    non-negative [wall_s] and it holds a span, by exact name, for each
    stage a flow run times: [flow.litho_model], [flow.place],
    [flow.sta.drawn], [flow.opc], [flow.cdex], [flow.annotate] and
    [flow.sta.post_opc].

    A metrics dump passes when every line parses as a counter, gauge
    or histogram, it holds the 17 metrics every dump of a flow binary
    carries (they register when their modules load: at least one per
    flow stage, plus the tile cache's and the checkpoint store's),
    each with its kind, every [require_nonzero] name is a counter or
    gauge above 0, and every
    [serve.verb.<v>] counter above 0 has a [serve.latency.<v>]
    histogram with at least one observation.  Passing neither file,
    or [require_nonzero] without [metrics], is a problem too. *)

(** {1 The summary ([potx obs-report])} *)

val summarise :
  ?metrics:string -> ?trace:string -> Format.formatter -> (unit, string) result
(** Print the offline summary of the given captures: from [metrics],
    per-verb latency quantiles (the [serve.latency.*] histograms; this
    is where a served request's p50/p95/p99 is read),
    worker-pool occupancy and the litho tile-cache hit rate; from
    [trace], the {!Profile.pp_table} self-time table, which is also
    where stage time shows.  [Error] names a file with no parsable
    metric or span; the metrics part is printed before the trace is
    read.  @raise Sys_error if a file cannot be read. *)
