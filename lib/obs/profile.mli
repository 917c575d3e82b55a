(** Offline profiling over a finished {!Span} log: self-time and
    self-allocation attribution through the span tree, a per-name
    aggregate table, and Chrome-trace ("trace event format") JSON
    export loadable in [chrome://tracing] / Perfetto.

    Everything here is a pure function of an event list — call it
    after the traced region (typically on [Span.events ()]), or on a
    trace read back from a JSONL sink with {!event_of_json}.
    Nothing touches the live registry or the tracing flag, so
    exporting a profile cannot perturb what it measured. *)

type node = {
  event : Span.event;
  children : node list;  (** in id order *)
  self_wall_s : float;  (** wall time minus direct children's wall time *)
  self_cpu_s : float;
  self_alloc_w : float;  (** allocated words minus children's *)
}

(** Roots of the span forest (events whose parent is not in the
    list), children nested in id order.  Self metrics are clamped at
    0 — children recorded on other domains can overlap their parent. *)
val tree : Span.event list -> node list

type row = {
  name : string;
  count : int;
  wall_s : float;  (** inclusive *)
  self_wall_s : float;
  alloc_w : float;  (** inclusive, words *)
  self_alloc_w : float;
}

(** Aggregate by span name, sorted by self wall time (desc), then
    name — the "where does the time actually go" table. *)
val aggregate : Span.event list -> row list

(** [{"traceEvents":[{"ph":"X","ts":µs,"dur":µs,"tid":domain,...}],
    "displayTimeUnit":"ms"}]; each event's [args] carries the span
    attrs plus [self_wall_ms]/[alloc_w]/[self_alloc_w]/[cpu_ms]. *)
val chrome_trace : Span.event list -> Json.t

val write_chrome_trace : string -> Span.event list -> unit

(** Render a log as an indented {!tree}, one span per line with
    wall/CPU seconds, allocation and attrs; a span whose parent is
    missing from the log prints as a root.  This is the [--trace]
    stderr tree. *)
val pp_tree : Format.formatter -> Span.event list -> unit

(** Render {!aggregate} as an aligned table (behind [--profile] and
    [potx obs-report --trace]).  It sums every domain's spans, so its
    columns are domain-seconds and domain-words: at N domains a name's
    self time can reach N times the run's wall time. *)
val pp_table : Format.formatter -> Span.event list -> unit

(** Parse one [{"type":"span",...}] JSONL object back into an event;
    [None] for anything else. *)
val event_of_json : Json.t -> Span.event option
